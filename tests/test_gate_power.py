"""Gate power: the shipped --assert gates reject tau without its sine map.

Each case runs one preset through its shipped Study.metrics and
Study.gate_failures twice at the same reduced size, seed and thread count:
once as shipped, where every gate must pass, and once with
harness.sigma_hat_tau patched to return the Kendall matrix itself, where
the named gates must fail.  A gate that passes on this wrong estimator
cannot catch a lost sine map once the output digests are re-recorded.

Mutants measured at seed 99 on 2 threads, gates from cli.STUDIES, the
mutant patched into harness:

| mutant | study, reps | verdict |
|---|---|---|
| tau without the sine map (estimate = tau) | thm1, 20 | rejected: slope_tau -0.045, ratio_thm1_tau 4.12 |
| same | thm2, 50 | rejected: ratio_thm2_q95 3.95 > 1.80 |
| same | thm3, 10, n_grid 300-2400 | rejected: slope_sq -0.226 |
| same | thm4, 20 | passes: slope -0.512 (unmutated -0.510) |
| same | thm5, 20 | passes: slope_median -0.567, recovery 1 (unmutated -0.569, 1) |
| rho without 2 sin(pi/6 rho) | thm1, 100 (shipped reps) | passes: slope_rho -0.432, ratio_thm1_rho 0.7791 (ceiling 0.78) |
| Pearson (oracle) on cube/expshift/softsign margins | thm2-thm5, 10-50 | rejected, every gate by far |
| tau over n^2 pairs, not n(n-1) | thm1, 100 | passes; test_fast_rank_matrices_match_definitional_bruteforce fails on it |

Only the rejected tau rows are tested here.  thm4 and thm5 cannot see the
sine map: on their populations it barely moves the eigenstructure (top-2
eigenprojections of AR(1) r=0.5, d=10 move by 0.0036 in spectral norm; the
spiked model's leading vector does not move at all).
"""

import pytest

from rankspec import harness
from rankspec.cli import STUDIES
from rankspec.rankest import _unit_diag_corr

SEED = 99
THREADS = 2


def _failed_gates(preset, overrides):
    """Names of the gates the preset misses at the given size."""
    study = STUDIES[preset]
    result = harness.run_experiment(study.config(SEED, **overrides), threads=THREADS)
    assert not result.failures
    messages = study.gate_failures(study.metrics(result))
    return {message.split("=")[0] for message in messages}


def _tau_without_sine_map(t):
    return _unit_diag_corr(t.values.entries.copy())


@pytest.mark.parametrize(
    "preset, overrides, rejected",
    [
        ("thm1", dict(reps=20), {"slope_tau", "ratio_thm1_tau"}),
        ("thm2", dict(reps=50), {"ratio_thm2_q95"}),
        ("thm3", dict(reps=10, n_grid=(300, 600, 1200, 2400)), {"slope_sq"}),
    ],
)
def test_gates_reject_tau_without_sine_map(monkeypatch, preset, overrides, rejected):
    assert _failed_gates(preset, overrides) == set()
    monkeypatch.setattr(harness, "sigma_hat_tau", _tau_without_sine_map)
    assert rejected <= _failed_gates(preset, overrides)
