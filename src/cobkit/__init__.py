"""cobkit: planar diagrams for 3-dimensional cobordisms.

Diagrams made of integer-framed surgery links and colored wedges of
circles, the calculus of moves that preserves the presented cobordism,
composition by sewing and mending, and exact homological invariants to
check it all with.
"""

from .errors import (CobkitError, CompositionError, GenusMismatchError,
                     MalformedDiagramError, MoveError,
                     NotStandardPositionError, ParseError, PreconditionError)
from .diagram import (Circle, Crossing, CrossingSlot, CenterSlot, Diagram,
                      Wedge, linking_matrix, linking_number, relabel, writhe)
from .planarity import (CombinatorialMap, ValidationReport, Violation,
                        euler_summary, faces, validate)
from .membranes import (Piercing, is_standard_position, membrane_excursions,
                        piercings)
from .canon import canonical_form, structural_iso
from .builders import (SigmaS1Link, borromean, empty_diagram, hopf,
                       identity_diagram, overpass_circle, sigma_g_s1_link,
                       stacked_rings, thread_circle, trefoil, unknot,
                       wedge_row)
from .invariants import (AbelianGroup, IntMatrix, boundary_profile, cokernel,
                         h1_closed, h1_cobordism, invariant_factors,
                         signature, smith_normal_form)
from .moves import (BlowDown, BlowUp, HandleSlide, Move, MoveScript, R1, R2,
                    R3, apply, replay, search_equivalent)
from .compose import (HandlebodyPattern, compose, inside_out,
                      make_identity_link, mend, permute, sew, tensor)
from .io_text import (parse, parse_move_script, serialize,
                      serialize_move_script)
from .render import render_svg

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
