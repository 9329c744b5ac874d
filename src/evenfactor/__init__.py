"""Spectral sufficient conditions for even factors, with an exact oracle.

Library layout:
  graphs    immutable graphs, the clique-join constructor, graph6 I/O, and
            the one codec between neighbour bitmasks and adjacency stacks
  spectral  Q(G), distance matrix, Wiener index, ``perron``, the one
            eigensolver, and ``perron_brackets``, exact integer bounds on
            the same radii, on stacks of same-order matrices
  quotient  partitions, quotient matrices, family cubics as (c2, c1, c0) on
            ints or Polys, and the Fourier-Budan sign test that certifies roots
  oracle    exact even-factor search, and the odd-component condition on a
            batch of graphs
  theorems  extremal cubics, thresholds, verdicts, recognition, the extremal table
  lemmas    the property checks and proofs behind the theorems, in one registry
  cli       command-line front end (spectra/certify/scan/lemmas/extremal/oracle)
"""

from .graphs import (
    Graph,
    Graph6Error,
    adjacency_stack,
    clique_join,
    from_graph6,
    read_graph6,
    to_graph6,
)
from .oracle import (
    CertificateStatus,
    EvenFactorCertificate,
    even_factor_status,
    find_even_factor,
    is_even_factor,
    odd_component_conditions,
)
from .quotient import (
    BracketingError,
    InvalidPartitionError,
    QuotientMatrix,
    charpoly3,
    largest_root,
    quotient_matrix,
)
from .lemmas import PerronABC, perron_abc, run_property_suite
from .spectral import (
    DisconnectedGraphError,
    distance_matrix,
    perron,
    perron_brackets,
    rho_d,
    rho_d_many,
    rho_q,
    rho_q_many,
    signless_laplacian,
    wiener_index,
)
from .theorems import (
    Conclusion,
    TheoremKind,
    TheoremVerdict,
    check_even_factor,
    check_even_factor_many,
    extremal_cubic,
    extremal_graph,
    extremal_table,
    order_bound,
    recognize_extremal,
    threshold,
)

__version__ = "0.1.0"
