"""The two reconstruction routes, each from one track to its result.

Both default an unset lambda from sigma, estimated from the track's LogR,
and the track length. The fused-lasso route always estimates sigma (its
segment test statistics need it); the DP route only when a lambda is
unset, so a track too short or flat for a sigma estimate still fits with
both lambdas given. Library functions are looked up through their
modules at call time, so that a wrapper installed on a module attribute
(as perfbench/tracing.py does) sees the call.
"""

from __future__ import annotations

import numpy as np

from . import dpi, fused_lasso, segment_caller, signal_model


def _sigma_and_lambdas(track, lambda1, lambda2) -> tuple[float, float, float]:
    sigma = signal_model.estimate_sigma(track)
    if lambda1 is None or lambda2 is None:
        d1, d2 = signal_model.default_lambdas(sigma, track.n)
        lambda1 = d1 if lambda1 is None else lambda1
        lambda2 = d2 if lambda2 is None else lambda2
    return sigma, lambda1, lambda2


def fit_fused_lasso(
    track, lambda1=None, lambda2=None, *, epsilon, tol, max_iter, fdr_level, min_snps, solver=None
):
    """Fit the smoothed fused lasso to the track's LogR and call CNVs.

    ``solver`` is ``solve_mm_tdm`` when None; the benchmark passes
    ``solve_mm_block`` to run the baseline. Returns (sigma, the solver's
    BetaFit, the FDR-called segments with adjacent equal calls merged).
    """
    sigma, lambda1, lambda2 = _sigma_and_lambdas(track, lambda1, lambda2)
    tc = signal_model.TuningConstants(lambda1, lambda2, epsilon=epsilon)
    solve = fused_lasso.solve_mm_tdm if solver is None else solver
    fit = solve(track.logr, tc, tol=tol, max_iter=max_iter)
    segments = segment_caller.call_cnvs(fit.beta, sigma, fdr_level=fdr_level, min_snps=min_snps)
    return sigma, fit, segment_caller.merge_adjacent_calls(fit.beta, segments, sigma)


def fit_dpi(track, lambda1=None, lambda2=None, *, alpha, mu_init, max_rounds) -> dpi.DpiFit:
    """Impute the track's copy numbers by DP, re-estimating the per-copy
    LogR means from ``mu_init``."""
    if lambda1 is None or lambda2 is None:
        _, lambda1, lambda2 = _sigma_and_lambdas(track, lambda1, lambda2)
    model = dpi.DpiModel(mu=mu_init, lambda1=lambda1, lambda2=lambda2, alpha=alpha)
    return dpi.dpi_fit(track, model, max_rounds=max_rounds)


def called_copies(segments, n: int) -> np.ndarray:
    """Per-SNP copy numbers of FDR calls: 1 in deletions, 3 in
    duplications, 2 elsewhere. Merging adjacent calls does not change it."""
    called = np.full(n, 2, dtype=np.int64)
    for seg in segments:
        if seg.call is segment_caller.Call.DELETION:
            called[seg.start_index : seg.end_index + 1] = 1
        elif seg.call is segment_caller.Call.DUPLICATION:
            called[seg.start_index : seg.end_index + 1] = 3
    return called
