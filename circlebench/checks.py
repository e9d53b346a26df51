"""Answer checks computed apart from the program.

Every checker takes plain numbers or arrays and returns (ok, detail).
None of them imports circlehj: the closed forms are written out here
from the model formulas, so a fault in the program cannot also hide in
its own oracle.  The constant-drift model is
H = (p + 1)^2 / 2 - 1/2 - lam*u and the cosine-potential model adds
0.2 cos(2 pi x).
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

TWO_PI = 2.0 * math.pi


def _result(ok, detail):
    return bool(ok), detail


def constant_drift_orbit(p0, u0, period, loop_integral, b=1.0):
    """The flat orbit p = u = 0 with period 1/b and |loop integral| = period."""
    errs = (abs(p0), abs(u0), abs(period - 1.0 / b),
            abs(period - abs(loop_integral)))
    ok = errs[0] <= 1e-10 and errs[1] <= 1e-10 and errs[2] <= 1e-8 \
        and errs[3] <= 1e-8
    return _result(ok, "p0 %.1e u0 %.1e |T-1/b| %.1e |T-|Z|| %.1e" % errs)


def period_matches_loop_integral(period, loop_integral, tol=1e-8):
    err = abs(period - abs(loop_integral))
    return _result(err <= tol, f"|T-|Z|| {err:.1e} (tol {tol:g})")


def pinned_profile(xs, x0, t, lam, k=1):
    """(lam/2) dist(x - x0 - t, Z/k)^2: the constant-drift pinned limit.

    Data pinned to 0 at x0 travel at unit speed; the min over k equal
    time shifts of a period-1 state has the lattice Z/k.
    """
    y = (np.asarray(xs, dtype=float) - x0 - t) * k
    d = np.abs((y + 0.5) % 1.0 - 0.5) / k
    return 0.5 * lam * d * d


def profile_error(slices, times, xs, x0, lam, k, tol):
    """Max over all slices of |w(t, x) - pinned_profile|."""
    worst = 0.0
    for values, t in zip(slices, times):
        exact = pinned_profile(xs, x0, t, lam, k)
        worst = max(worst, float(np.max(np.abs(np.asarray(values) - exact))))
    return _result(worst <= tol, f"T/{k} profile error {worst:.2e} (tol {tol:g})")


def amplitude_floor(amplitude, lam, factor=0.5):
    """Oscillation at the pin is at least factor * lam / (4 pi^2)."""
    floor = factor * lam / (4.0 * math.pi ** 2)
    return _result(amplitude >= floor,
                   f"amplitude {amplitude:.4f} >= {floor:.4f}")


def at_most(name, value, tol):
    return _result(value <= tol, f"{name} {value:.2e} (tol {tol:g})")


def pinned_action(x0, u0, x, t, lam):
    """Closed-form pinned action of the constant-drift model.

    Along a characteristic p(s) = p0 e^{lam s} and x moves at speed p + 1,
    so landing at x + k after time t fixes p0; the arrival value is
    u0 e^{lam t} plus a term quadratic in the detour d = x - x0 + k - t.
    """
    ks = np.arange(-8, 9)
    d = x - x0 + ks - t
    e = math.exp(lam * t)
    return float(u0 * e + np.min(lam * d * d * e / (2.0 * (e - 1.0))))


def shooting_action(value, x0, u0, x, t, lam, tol=1e-8):
    exact = pinned_action(x0, u0, x, t, lam)
    err = abs(value - exact)
    return _result(err <= tol, f"action {value:.12f} vs {exact:.12f} "
                               f"err {err:.1e} (tol {tol:g})")


def reversibility(u0, target, x0, x, t, lam, tol):
    """Solved u0 against (target - min_k g_k) / e^{lam t}."""
    exact = pinned_action(x0, 0.0, x, t, lam)
    expected = (target - exact) / math.exp(lam * t)
    err = abs(u0 - expected)
    return _result(err <= tol, f"u0 {u0:.6f} vs closed form {expected:.6f} "
                               f"err {err:.1e} (tol {tol:g})")


def comparison(lower, upper, tol=1e-9):
    """T(psi) <= T(phi) wherever psi <= phi."""
    excess = float(np.max(np.asarray(lower) - np.asarray(upper)))
    return _result(excess <= tol, f"max T(psi)-T(phi) {excess:.1e} "
                                  f"(tol {tol:g})")


def same_values(a, b, tol, name):
    err = float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
    return _result(err <= tol, f"{name} {err:.1e} (tol {tol:g})")


def bifurcation_rows(rows, fp_tol=1e-4):
    """Class by the sign of lambda, amplitude floors and period 1.

    rows: (lambda, class, amplitude, period) for the constant-drift
    family, whose orbit has period 1 for every lambda > 0.
    """
    bad = []
    for lam, klass, amp, period in rows:
        if lam < 0.0:
            ok = klass == "fixed_point" and amp <= fp_tol
        elif lam == 0.0:
            ok = klass == "degenerate"
        else:
            ok = (klass == "periodic" and amp >= lam / (8.0 * math.pi ** 2)
                  and abs(period - 1.0) <= 1e-8)
        if not ok:
            bad.append(f"{lam:g}:{klass}@{amp:.3g},T={period:.6g}")
    return _result(not bad and len(rows) > 0,
                   "rows " + (" ".join(bad) if bad else f"{len(rows)} ok"))


def golden_orbit(meta, golden, tol=1e-7):
    """p0, u0, period and loop integral against frozen reference values."""
    errs = {k: abs(float(meta[k]) - golden[k])
            for k in ("p0", "u0", "period", "loop_integral")}
    worst = max(errs.values())
    return _result(worst <= tol, f"worst golden deviation {worst:.1e} "
                                 f"(tol {tol:g})")


def quadratic_H(x, p, u, lam, v0=0.0):
    """(p+1)^2/2 - 1/2 + v0 cos(2 pi x) - lam u."""
    return 0.5 * (p + 1.0) ** 2 - 0.5 + v0 * np.cos(TWO_PI * x) - lam * u


def read_csv_columns(text):
    """Header and float columns of a CSV written by the program."""
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    data = np.array([[float(v) for v in r] for r in rows[1:]])
    return {name: data[:, i] for i, name in enumerate(header)}


def bifurcation_csv_rows(text):
    """(lambda, class, amplitude, period) rows of bifurcation.csv."""
    rows = list(csv.reader(io.StringIO(text)))
    at = {name: i for i, name in enumerate(rows[0])}
    return [(float(r[at["lambda"]]), r[at["class"]], float(r[at["amplitude"]]),
             float(r[at["period"]])) for r in rows[1:]]


def orbit_csv_energy(text, lam, v0, tol=1e-9):
    """H recomputed from the x, p, u columns of orbit.csv vanishes."""
    cols = read_csv_columns(text)
    worst = float(np.max(np.abs(quadratic_H(cols["x"], cols["p"], cols["u"],
                                            lam, v0))))
    return _result(worst <= tol and cols["x"].size > 1,
                   f"max |H| on orbit.csv {worst:.1e} (tol {tol:g})")


def identical(a, b, name):
    return _result(a == b and len(a) > 0,
                   f"{name} {'identical' if a == b else 'differs'}")


def check_model_report(report, lam, v0):
    """Margins of check_model.json against their closed forms.

    a = 1 gives h1_margin 1, the u-term gives h4_margin lam, and
    max_x min_p H(x, p, 0) = v0 - 1/2 (the cosine peaks at a sample).
    """
    errs = (abs(report["h1_margin"] - 1.0), abs(report["h4_margin"] - lam),
            abs(report["c_margin"] - (v0 - 0.5)))
    ok = (report["h1_ok"] and report["h4_ok"] and report["condition_C_ok"]
          and max(errs) <= 1e-9)
    return _result(ok, "margin errors %.1e %.1e %.1e" % errs)


def subsolution_epsilon(epsilon, lam, tol=1e-9):
    """Constant drift: eps = delta Z^2 min B^2 / (8 pi^2 M0) = lam / (4 pi^2)."""
    exact = lam / (4.0 * math.pi ** 2)
    err = abs(epsilon - exact)
    return _result(err <= tol, f"epsilon {epsilon:.10f} vs {exact:.10f}")


def period_residual_from_slices(text, reported, tol=1e-12):
    """Sup gap between the first and last slice of periodic.csv."""
    cols = read_csv_columns(text)
    times = np.unique(cols["t"])
    first = cols["value"][cols["t"] == times[0]]
    last = cols["value"][cols["t"] == times[-1]]
    gap = float(np.max(np.abs(last - first)))
    return _result(abs(gap - reported) <= tol,
                   f"slice gap {gap:.3e} vs reported {reported:.3e}")
