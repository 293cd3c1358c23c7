"""One-clean-qubit trace estimation and noise-tolerant parity learning."""

__version__ = "0.1.0"

from .circuits import StepBlock, as_bits, bits_to_str, rx
from .dqc1 import Dqc1Config, EstimateRecord, expectations_from_tau, sample_expectations
from .infomeasures import (
    DiscordResult,
    binary_entropy,
    coherence_consumption,
    protocol_discord,
)
from .lpn import (
    BudgetExhaustedError,
    BudgetParams,
    LearnResult,
    closed_form_tau,
    learn,
    make_oracle,
    query_budget,
)
from .noise import midcircuit_noise_experiment, phase_flip_parity_experiment
from .qstate import (
    DensityMatrix,
    KrausSet,
    OperatorMatrix,
    analytic_expectations,
    build_parity_unitary,
    initial_state,
    mutual_information,
    partial_trace,
    probe_expectations,
    quantum_discord,
    run_protocol,
    tensor,
)

__all__ = [
    "__version__",
    "StepBlock",
    "as_bits",
    "bits_to_str",
    "build_parity_unitary",
    "rx",
    "Dqc1Config",
    "EstimateRecord",
    "analytic_expectations",
    "expectations_from_tau",
    "initial_state",
    "probe_expectations",
    "run_protocol",
    "sample_expectations",
    "DiscordResult",
    "binary_entropy",
    "coherence_consumption",
    "mutual_information",
    "protocol_discord",
    "quantum_discord",
    "BudgetExhaustedError",
    "BudgetParams",
    "LearnResult",
    "closed_form_tau",
    "learn",
    "make_oracle",
    "query_budget",
    "midcircuit_noise_experiment",
    "phase_flip_parity_experiment",
    "DensityMatrix",
    "KrausSet",
    "OperatorMatrix",
    "partial_trace",
    "tensor",
]
