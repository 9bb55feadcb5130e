"""repro — population protocols and the state complexity of counting.

A reproduction of *Lower Bounds on the State Complexity of Population
Protocols* (Czerner, Esparza, Leroux — PODC 2021) as a usable library:

* the population protocol model with leaders (``repro.core``);
* verified protocol constructions — thresholds (flat/binary), majority,
  modulo, leader counters, boolean combinators (``repro.protocols``);
* exact analyses — verification by bottom-SCC consensus, stable sets
  and their bases, saturation, concentration (``repro.analysis``);
* reachability substrates — exact graphs, Karp-Miller coverability,
  pseudo-reachability (``repro.reachability``);
* Hilbert bases of Diophantine systems / Pottier bounds
  (``repro.diophantine``);
* WQO machinery — Dickson's lemma, controlled bad sequences, the Fast
  Growing Hierarchy (``repro.wqo``);
* the paper's bounds and checkable pumping certificates
  (``repro.bounds``);
* stochastic simulation at small and very large scale
  (``repro.simulation``).

Quickstart::

    from repro import binary_threshold, verify_protocol, counting
    protocol = binary_threshold(5)
    report = verify_protocol(protocol, counting(5), max_input_size=8)
    assert report.ok
"""

from .analysis import (
    BasisElement,
    check_basis_element,
    check_downward_closure,
    infer_basis,
    is_stable,
    saturation_sequence,
    stable_slice,
    verify_input,
    verify_protocol,
)
from .bounds import (
    PumpingCertificate,
    SaturationCertificate,
    best_leaderless_witness,
    beta,
    gap_table,
    log2_beta,
    log2_theorem_5_9_final,
    section4_certificate,
    section5_certificate,
    theorem_5_9_bound,
    xi,
)
from .core import (
    EMPTY,
    And,
    Constant,
    Modulo,
    Multiset,
    Not,
    Or,
    PopulationProtocol,
    Predicate,
    Threshold,
    Transition,
    counting,
    majority,
)
from .protocols import (
    ProtocolBuilder,
    approximate_majority,
    binary_threshold,
    conjunction,
    disjunction,
    double_exp_threshold,
    example_2_1_binary,
    example_2_1_flat,
    flat_threshold,
    leader_binary_threshold,
    leader_unary_threshold,
    leroux_leader_threshold,
    majority_protocol,
    modulo_protocol,
    negation,
)
from .simulation import CountScheduler, measure_convergence, record_trace

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "Multiset",
    "EMPTY",
    "PopulationProtocol",
    "Transition",
    "Predicate",
    "Threshold",
    "Modulo",
    "And",
    "Or",
    "Not",
    "Constant",
    "counting",
    "majority",
    # protocols
    "ProtocolBuilder",
    "flat_threshold",
    "example_2_1_flat",
    "binary_threshold",
    "example_2_1_binary",
    "majority_protocol",
    "modulo_protocol",
    "leader_unary_threshold",
    "leader_binary_threshold",
    "approximate_majority",
    "double_exp_threshold",
    "leroux_leader_threshold",
    "negation",
    "conjunction",
    "disjunction",
    # analysis
    "verify_protocol",
    "verify_input",
    "stable_slice",
    "is_stable",
    "check_downward_closure",
    "infer_basis",
    "check_basis_element",
    "BasisElement",
    "saturation_sequence",
    # bounds
    "beta",
    "log2_beta",
    "xi",
    "theorem_5_9_bound",
    "log2_theorem_5_9_final",
    "PumpingCertificate",
    "SaturationCertificate",
    "section4_certificate",
    "section5_certificate",
    "best_leaderless_witness",
    "gap_table",
    # simulation
    "CountScheduler",
    "measure_convergence",
    "record_trace",
]
