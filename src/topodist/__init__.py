"""topodist: distances between scalar fields on finite simplicial complexes.

Computes persistence diagrams of lower-star filtrations, the bottleneck
distance, merge trees and their interleaving distance, the L-infinity
distance, an enumerative upper bound for the natural pseudo-distance, and
certified upper bounds on the homotopy-type shift between filtrations on
possibly different (but homotopy equivalent) complexes — together with the
cross-checks tying these quantities into the chain

    bottleneck  <=  certified shift  <=  isomorphism bound  <=  L-infinity,

the last step on a shared domain.
"""

from .bottleneck import (
    Matching,
    bottleneck_bruteforce,
    bottleneck_distance,
    linf_distance,
    natural_pseudo_upper,
)
from .certify import (
    CertificateCheck,
    ProbeReport,
    ShiftCertificate,
    StabilityReport,
    check_certificate,
    enumerate_simplicial_maps,
    format_certificate,
    load_certificate,
    parse_certificate,
    save_certificate,
    search_certificate,
    upshift_asymmetry_probe,
    verify_stability,
)
from .common import Bound, ParseError, SizeGuardExceeded
from .complexes import (
    ContiguityChain,
    FilteredComplex,
    SimplicialComplex,
    SimplicialMap,
    VertexFunction,
    build_complex,
    check_contiguity_chain,
    check_simplicial,
    compose,
    contiguous,
    format_instance,
    homotopy_sup_control,
    identity_map,
    load_instance,
    lower_star,
    parse_instance,
    save_instance,
)
from .corpus import CorpusReport, InstancePair, run_corpus, run_pair
from .mergetree import (
    MergeTree,
    build_merge_tree,
    check_interleaving,
    diagram_from_tree,
    format_tree,
    interleaving_candidates,
    interleaving_distance,
    load_tree,
    parse_tree,
    save_tree,
)
from .persistence import (
    PersistenceDiagram,
    compute_diagrams,
    diagrams_to_tsv,
    h0_diagram_unionfind,
    load_diagrams,
    parse_diagrams_tsv,
    save_diagrams,
    shift_diagram,
)

__version__ = "0.1.0"
