"""Time-series and distribution statistics used by the evaluation.

- :mod:`repro.stats.autocorrelation` -- the autocorrelation function with
  the paper's normalization and the 99% confidence band of Figure 5;
- :mod:`repro.stats.summary` -- the degree-dynamics summary of Table 2;
- :mod:`repro.stats.distributions` -- histograms, balance indicators
  and the log-spaced observation cycles behind Figure 4;
- :mod:`repro.stats.sampling_quality` -- distances of a ``get_peer()``
  stream from the uniform distribution (the ``sampling-distance``
  measurement).
"""

from repro.stats.autocorrelation import autocorrelation, confidence_band
from repro.stats.distributions import log_spaced_cycles
from repro.stats.summary import degree_dynamics_summary

__all__ = [
    "autocorrelation",
    "confidence_band",
    "degree_dynamics_summary",
    "log_spaced_cycles",
]
