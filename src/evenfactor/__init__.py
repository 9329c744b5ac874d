"""Spectral sufficient conditions for even factors, with an exact oracle.

Library layout:
  graphs    immutable graphs, family constructors, graph6 I/O
  spectral  Q(G), distance matrix, Perron roots (batched by order), Wiener index
  quotient  partitions, quotient matrices, family cubics, root bracketing
  oracle    exact even-factor search and the odd-component condition
  theorems  thresholds, verdicts, extremal recognition, property suite
  cli       command-line front end (spectra/certify/scan/lemmas/extremal/oracle)
"""

from .graphs import (
    ComponentReport,
    Graph,
    Graph6Error,
    clique_join,
    complete,
    complete_bipartite,
    components,
    cycle,
    delete_vertices,
    disjoint_union,
    empty,
    from_graph6,
    join,
    load_graph6_file,
    path,
    to_graph6,
)
from .oracle import (
    CertificateStatus,
    EvenFactorCertificate,
    OddComponentReport,
    find_even_factor,
    is_even_factor,
    odd_component_condition,
)
from .quotient import (
    BracketingError,
    Cubic,
    CubicFamily,
    DifferenceIdentity,
    InvalidPartitionError,
    QuotientMatrix,
    charpoly3,
    family_cubic,
    identity_check,
    largest_root,
    quotient_matrix,
)
from .spectral import (
    DisconnectedGraphError,
    PerronResult,
    distance_matrix,
    largest_eigenvalue,
    perron,
    rho_d,
    rho_d_many,
    rho_q,
    rho_q_many,
    signless_laplacian,
    wiener_index,
)
from .theorems import (
    Conclusion,
    ExtremalParams,
    FamilyParams,
    JoinFamily,
    PerronABC,
    TheoremKind,
    TheoremVerdict,
    check_even_factor,
    check_even_factor_d,
    check_even_factor_many,
    check_even_factor_q,
    extremal_even_factor,
    extremal_graph,
    extremal_table,
    family_graph,
    order_bound,
    perron_abc,
    recognize_extremal,
    run_property_suite,
    threshold_rho_d,
    threshold_rho_q,
)

__version__ = "0.1.0"
