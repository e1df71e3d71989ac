"""Binary symmetric Markov chain observed through a binary symmetric channel.

Exact cylinder and conditional probabilities of the observed process via the
transfer recursion, brute-force enumeration oracles, Gibbs/thermodynamic
diagnostics (g-function, potential, pressure, decay-rate certificates), seeded
simulation, and the standard denoisers with a bit-error-rate benchmark.
"""

__version__ = "0.1.0"

from .denoise import (
    PosteriorMarginals,
    bfp_denoise,
    bit_error_rate,
    default_context_length,
    dude,
    dude_detail,
    emission_inverse,
    emission_matrix,
    estimate_p_moment,
    forward_backward,
    gibbs_denoise,
    gibbs_detail,
    gibbs_params,
    map_denoise,
    posterior_from_two_sided,
)
from .errors import (
    CertificateOverflowError,
    DivisionNearZeroError,
    InsufficientContextError,
    LengthMismatchError,
    MalformedDataError,
    NoisyMarkovError,
    OutOfRangeError,
    SingularChannelError,
    TooLongError,
)
from .model import ChannelParams, channel_model, validate_params
from .oracle import brute_force_cylinder, enumerate_cylinder_table
from .sequences import FieldTrajectory, SpinSequence, as_spin_array
from .simulate import (
    SimulatedPath,
    generate_dataset,
    load_path_csv,
    load_spins,
    sample_markov,
    save_path_csv,
    save_spins,
    transmit,
)
from .thermo import (
    GibbsCertificate,
    bowen_gibbs_certificate,
    bowen_gibbs_ratio,
    coboundary,
    g_continued_fraction,
    g_function,
    gibbs_potential,
    limit_field,
    pressure,
    variation_estimate,
)
from .transfer import (
    DecayBound,
    backward_fields,
    conditional_prob,
    cylinder_prob,
    decay_rate_bound,
    field_shift,
    forward_fields,
    log_cylinder_prob,
    log_partition_term,
    required_context,
    two_sided_conditional,
    two_sided_limit_conditional,
)
