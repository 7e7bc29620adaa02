"""Acceptance gate: one test per validation check, one summary line each.

Run with `pytest -s tests/test_acceptance.py` to see the measured margins;
each line prints the worst observed deviation next to its bound.  The
time-domain checks share one cached set of integrations, so the first of
them pays the runtime and the rest are bookkeeping on the same histories.
"""

from dwelltime import validation


def _gate(result):
    print(result.line())
    assert result.passed, result.line()


def test_average_dwell_equals_survival_integral():
    _gate(validation.check_avg_dwell_identity())


def test_outcome_decomposition_sums_to_average():
    _gate(validation.check_outcome_sum_rule())


def test_transmitted_dwell_matches_closed_forms():
    _gate(validation.check_transmitted_closed_form())


def test_scattered_dwell_two_routes_agree():
    _gate(validation.check_scattered_delay_equality())


def test_narrowband_landmark_values():
    _gate(validation.check_narrowband_landmarks())


def test_time_domain_integrator_reproduces_spectral_results():
    _gate(validation.check_crossval_timedomain())


def test_scattered_dwell_against_jump_time_oracle():
    _gate(validation.check_scattered_oracle())


def test_reference_curve_landmarks():
    _gate(validation.check_figure_landmarks())


def test_asymptotic_regimes_track_exact_values():
    _gate(validation.check_asymptotic_windows())


def test_cavity_model_identities():
    _gate(validation.check_cavity_identities())


def test_probability_bookkeeping_closes():
    _gate(validation.check_bookkeeping())


def test_quadrature_doubling_changes_nothing():
    _gate(validation.check_grid_convergence())


def test_group_delay_is_the_phase_derivative():
    _gate(validation.check_group_delay_phase_consistency())


def test_reports_symmetric_in_detuning_sign():
    _gate(validation.check_spectral_symmetry())


def test_forward_backward_overlap_is_constant():
    _gate(validation.check_overlap_constancy())


def test_every_check_is_gated():
    """Each check of `validate --profile full` is called by a test above."""
    called = {name for fn in list(globals().values()) if getattr(fn, "__name__", "").startswith("test_")
              for name in fn.__code__.co_names}
    assert {check.__name__ for check in validation.FULL_CHECKS} <= called
