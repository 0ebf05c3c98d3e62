"""Parallel transmit phased-array calibration: signaling, receiver, accuracy theory.

Two signaling schemes are implemented end to end.  The orthogonal
baseline assigns each antenna element a Walsh code and reads the channel
gains straight off a bank of matched-filter peaks.  The cyclic-shift
scheme assigns every element a shifted copy of one m-sequence, recovers
all peaks sequentially from a single matched filter, and removes the
inter-element leakage with a two-coefficient zero-forcing equalizer.
Closed-form RMSE predictions for both schemes come with a Monte-Carlo
harness that reproduces the reference accuracy figures.
"""

from .channel import (ElementGains, LinkBudget, complex_awgn, csms_clean_stream,
                      ev_n0_from_link_budget, noise_var_from_snr)
from .codes import (BinarySequence, generate_msequence, msequence_code,
                    periodic_autocorrelation, to_bipolar, walsh_matrix)
from .errors import (ArrayCalError, ConfigError, DimensionError, NegativeRadicand,
                     NonMaximalPolynomial, ReferenceZero, SingularError, UnknownFigure)
from .harness import (RmseReport, RmseRow, ScenarioConfig, reproduce_figure,
                      run_scenario, run_trial, scenario_points)
from .receiver import (MismatchReport, ZfEqualizer, csms_peaks, extract_mismatch,
                       oma_estimate, wrap_degrees, zf_equalize)
from .theory import (NoiseStats, TheoryPoint, average_rmse, closed_form_point,
                     csms_gain_noise_stats, csms_peak_noise_cov, gain_rmse_theory,
                     oma_noise_stats, phase_rmse_theory, theory_point)

__version__ = "0.1.0"
