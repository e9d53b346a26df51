"""The four workloads: seeded inputs, one round of operations, checks.

A workload's ``setup`` makes its inputs from the seed and builds its
models; ``run_round`` performs the same operations every round through
``Round.op`` and checks each answer with ``checks``.  The program is
reached only through module attributes (``ch.semigroup.evolve``), so the
step counter and the tracer installed on those attributes see every
call.

Seeds move inputs without moving the amount of work: the constant-drift
model is invariant under whole-node translations, so a seeded pin node
takes the same steps anywhere, and evolution horizons are fixed.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys
import time
import traceback

import numpy as np

import checks

LAM = 0.5


class Round:
    """Times operations, counts attempts and failures, collects checks."""

    def __init__(self):
        self.solve_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.checks = []
        self.faults = []

    def op(self, name, fn, needs=()):
        """Run fn() as one operation; None when it raised or a need is missing.

        An operation whose input came from a failed one is counted as
        attempted and failed, so every round attempts the same number.
        """
        self.attempted += 1
        if any(n is None for n in needs):
            self.failed += 1
            return None
        start = time.perf_counter()
        try:
            return fn()
        except Exception:
            self.failed += 1
            sys.stderr.write(f"operation {name} failed:\n")
            traceback.print_exc()
            return None
        finally:
            self.solve_s += time.perf_counter() - start

    def check(self, name, result):
        ok, detail = result
        self.checks.append((name, ok, detail))

    def known_fault(self, name, result):
        """Check an answer that a known program fault makes wrong every time.

        A wrong answer counts its operation as failed, not the run as
        incorrect: the failed share then stays the same in every run.  A
        right one (the fault mended) is an ordinary check.
        """
        ok, detail = result
        if ok:
            self.checks.append((name, ok, detail))
        else:
            self.failed += 1
            self.faults.append((name, detail))


def smooth_datum(rng, xs, amplitude=0.2, modes=3):
    vals = np.full(xs.shape, rng.uniform(-amplitude, amplitude))
    for m in range(1, modes + 1):
        vals += (rng.uniform(-amplitude, amplitude) / m
                 * np.cos(2 * np.pi * m * xs + rng.uniform(0, 2 * np.pi)))
    return vals


class PeriodicCD256:
    """Pinned limit, its T/2 and T/4 shifts, the long-time limit.

    n = 256, dt = h: reach v_max dt n = 10 cells each way.
    """

    name = "periodic_cd256"

    def setup(self, ch, seed, root, scratch):
        rng = np.random.default_rng(seed)
        sg = ch.semigroup
        self.model = ch.model.constant_drift_model(1.0, LAM)
        self.grid = sg.Grid(256)
        xs = self.grid.nodes
        self.x0 = int(rng.integers(256)) / 256.0
        self.phi_long = sg.Field(
            self.grid, 0.05 - 0.05 * np.cos(2 * np.pi * (xs - self.x0)))
        phi = smooth_datum(rng, xs)
        self.phi = sg.Field(self.grid, phi)
        self.psi = sg.Field(self.grid, phi - np.abs(smooth_datum(rng, xs)))

    def run_round(self, ch, r):
        sg, flow, pr = ch.semigroup, ch.flow, ch.periodic
        model, grid, x0 = self.model, self.grid, self.x0
        xs = grid.nodes
        orbit = r.op("orbit", lambda: flow.shoot_stationary_orbit(
            model, guess=(0.1, 0.1), n=2048))
        if orbit is not None:
            r.check("orbit closed form", checks.constant_drift_orbit(
                orbit.p0, orbit.u0, orbit.period, orbit.loop_integral))
        pinned = r.op("pinned_limit", lambda: pr.pinned_periodic_limit(
            model, orbit, x0=x0, grid=grid), needs=(orbit,))
        halves = r.op("shift_T/2", lambda: pr.min_shift_combine(pinned, 2),
                      needs=(pinned,))
        quarters = r.op("shift_T/4", lambda: pr.min_shift_combine(pinned, 4),
                        needs=(pinned,))
        for k, sol, tol in ((1, pinned, 2.5e-2), (2, halves, 1e-2),
                            (4, quarters, 5e-3)):
            if sol is not None:
                r.check(f"pinned T/{k} profile", checks.profile_error(
                    [s.values for s in sol.slices], sol.times, xs, x0, LAM,
                    k, tol))
        if pinned is not None:
            r.check("pinned amplitude floor", checks.amplitude_floor(
                pinned.amplitude_at_x0, LAM))
            r.check("pinned period residual", checks.at_most(
                "residual", pinned.period_residual, 5e-3))
        longtime = r.op("long_time_limit", lambda: pr.long_time_periodic_limit(
            model, self.phi_long, orbit, localization_t=1.0), needs=(orbit,))
        if longtime is not None:
            r.check("long-time profile", checks.profile_error(
                [s.values for s in longtime.slices], longtime.times, xs, x0,
                LAM, 1, 2.5e-2))
            r.check("long-time period residual", checks.at_most(
                "residual", longtime.period_residual, 5e-3))
            r.check("long-time localization", checks.at_most(
                "gap", longtime.localization_gap, 5e-2))
        pair = r.op("comparison", lambda: (
            sg.evolve(model, self.psi, 0.25, grid.h).final.values,
            sg.evolve(model, self.phi, 0.25, grid.h).final.values))
        if pair is not None:
            r.check("comparison", checks.comparison(*pair))


class ReachCD1024:
    """Reversibility bisections at n = 1024, dt = 8e-3 (reach 82 cells).

    Each target is the program's action at a seeded u0* that the bisection
    of [-50, 50] meets exactly at depth DEPTH, so every solve takes
    DEPTH + 2 action evaluations whatever the seed.
    """

    name = "reach_cd1024"
    DEPTH = 10
    T = 0.504      # 63 steps of exactly 8e-3
    DT = 8e-3
    SOLVES = 2

    def setup(self, ch, seed, root, scratch):
        rng = np.random.default_rng(seed)
        n = 1024
        self.model = ch.model.constant_drift_model(1.0, LAM)
        self.grid = ch.semigroup.Grid(n)
        self.cases = []
        for _ in range(self.SOLVES):
            i0 = int(rng.integers(n))
            x0 = i0 / n
            x = ((i0 + int(rng.integers(-300, 300))) % n) / n
            j = int(rng.integers(2 ** (self.DEPTH - 1) // 2 - 4,
                                 2 ** (self.DEPTH - 1) // 2 + 4))
            u_star = -50.0 + 100.0 * (2 * j + 1) / 2 ** self.DEPTH
            self.cases.append((x0, x, u_star))

    def run_round(self, ch, r):
        sg = ch.semigroup
        model, grid, t, dt = self.model, self.grid, self.T, self.DT
        for x0, x, u_star in self.cases:
            target = r.op("target_action", lambda: sg.action_function(
                model, x0, u_star, x, t, grid=grid, dt=dt).value)
            u0 = r.op("reversibility", lambda: sg.solve_reversibility(
                model, x0, x, t, target, grid=grid, dt=dt), needs=(target,))
            if u0 is not None:
                r.check("reversibility root", checks.same_values(
                    u0, u_star, 0.0, "|u0-u*|"))
                r.check("reversibility closed form", checks.reversibility(
                    u0, target, x0, x, t, LAM, 5e-3))


def _custom_model(ch):
    """(p+1)^2/2 - 1/2 + 0.1 cos 2 pi x - 0.5 u - 0.05 sin u as raw callables.

    Not affine in u, no closed-form Lagrangian: every step takes the value
    fixed point with numeric Legendre solves.
    """
    tp = 2 * np.pi

    def H(x, p, u):
        return 0.5 * (p + 1) ** 2 - 0.5 + 0.1 * np.cos(tp * x) - 0.5 * u \
            - 0.05 * np.sin(u)

    def d_p(x, p, u):
        return p + 1.0 + 0.0 * (x + u)

    def d_x(x, p, u):
        return -0.1 * tp * np.sin(tp * x) + 0.0 * (p + u)

    def d_u(x, p, u):
        return -0.5 - 0.05 * np.cos(u) + 0.0 * (x + p)

    def d_pp(x, p, u):
        return 1.0 + 0.0 * (x + p + u)

    return ch.model.HamiltonianModel(
        eval_H=H, d_p=d_p, d_x=d_x, d_u=d_u, d_pp=d_pp, kappa=0.55,
        delta=0.45, name="custom-nonaffine")


class GenericCharacteristics:
    """Generic step, characteristic shooting and orbit solves."""

    name = "generic_characteristics"
    FAMILY = 3
    # (x0, u0, x) of the shooting action, not seeded.  _shooting_action
    # takes the minimum over the bisected landings and over every fan
    # endpoint within land_window = 1/256 of x, unrefined.  Here the fan
    # endpoint at p = -0.78125 lands 3.3e-3 past x, where the action is
    # lower, and the returned 0.262601 undercuts the closed form 0.265908
    # by 3.3e-3.  About one uniformly drawn case in eight does the same.
    SHOOTING_CASE = (0.2463447121738267, 0.03115871058055633,
                     0.2992710178387148)

    def setup(self, ch, seed, root, scratch):
        rng = np.random.default_rng(seed)
        sg = ch.semigroup
        self.custom = _custom_model(ch)
        self.cd = ch.model.constant_drift_model(1.0, LAM)
        # the same Hamiltonian without its closed forms: the generic path
        self.cd_generic = dataclasses.replace(
            self.cd, closed_form_L=None, l_affine_u=None, quad_coeffs=None)
        self.grid = sg.Grid(128)
        self.phi = sg.Field(self.grid, smooth_datum(rng, self.grid.nodes))
        self.family = []
        for _ in range(self.FAMILY):
            b, lam = rng.uniform(0.5, 2.0), rng.uniform(0.2, 0.8)
            self.family.append((b, ch.model.make_quadratic_model(1.0, b, 0.0,
                                                                 lam)))

    def run_round(self, ch, r):
        sg, flow = ch.semigroup, ch.flow
        grid = self.grid
        orbit = r.op("custom_shoot",
                     lambda: flow.shoot_stationary_orbit(self.custom))
        if orbit is not None:
            r.check("custom period/loop", checks.period_matches_loop_integral(
                orbit.period, orbit.loop_integral))
            r.check("custom energy", checks.at_most(
                "max|H|", float(np.max(np.abs(self.custom.eval_H(
                    orbit.x_nodes, orbit.p_of_x, orbit.u_of_x)))), 1e-9))
        start = (sg.Field(grid, orbit.u0_at(grid.nodes))
                 if orbit is not None else None)
        fixed = r.op("custom_T1", lambda: sg.evolve(
            self.custom, start, 1.0, 1.0 / 16).final, needs=(start,))
        if fixed is not None:
            r.check("custom u0 fixed by T_1", checks.same_values(
                fixed.values, start.values, 5 * grid.h, "sup|T_1 u0 - u0|"))
        t = 8 * grid.h
        pair = r.op("generic_vs_closed", lambda: (
            sg.evolve(self.cd_generic, self.phi, t, grid.h).final.values,
            sg.evolve(self.cd, self.phi, t, grid.h).final.values))
        if pair is not None:
            r.check("generic path = closed-form path",
                    checks.same_values(*pair, 1e-10, "max diff"))
        x0, u0, x = self.SHOOTING_CASE
        action = r.op("shooting_action", lambda: sg.action_function(
            self.cd, x0, u0, x, 0.5, method="shooting").value)
        if action is not None:
            r.known_fault("shooting action closed form",
                          checks.shooting_action(action, x0, u0, x, 0.5, LAM))
        for b, model in self.family:
            orb = r.op("family_orbit", lambda: flow.shoot_stationary_orbit(
                model, guess=(0.1, 0.1)))
            if orb is not None:
                r.check(f"family b={b:.3f} orbit", checks.constant_drift_orbit(
                    orb.p0, orb.u0, orb.period, orb.loop_integral, b))


class CliConfigs:
    """The command line on the shipped configs, in this process."""

    name = "cli_configs"
    CD = ("constant_drift.cfg", 0.0)     # (config, cosine amplitude v0)
    CDV = ("cosine_potential.cfg", 0.2)

    def setup(self, ch, seed, root, scratch):
        self.root = root
        self.out = os.path.join(scratch, f"cli-{seed}-{os.getpid()}")
        # a user's first command pays for config parsing and the sympy
        # model build; later builds of the same expressions hit caches
        for cfg, _ in (self.CD, self.CDV):
            ch.config.build_model(ch.config.load_config(self._cfg(cfg)))
        from circlehj import golden
        self.golden = golden.CDV_ORBIT

    def _cfg(self, name):
        return os.path.join(self.root, "configs", name)

    def _run(self, ch, r, command, cfg, tag):
        out = os.path.join(self.out, f"{command}-{tag}")
        status = r.op(command, lambda: _expect_zero(ch.cli.main(
            [command, "--config", self._cfg(cfg), "--out", out])))
        return out if status is not None else None

    def run_round(self, ch, r):
        shutil.rmtree(self.out, ignore_errors=True)
        orbit_out = {}
        for (cfg, v0), tag in ((self.CD, "cd"), (self.CDV, "cdv")):
            out = self._run(ch, r, "check-model", cfg, tag)
            if out:
                r.check(f"check-model {tag}", checks.check_model_report(
                    _json(out, "check_model.json"), LAM, v0))
            out = orbit_out[tag] = self._run(ch, r, "orbit", cfg, tag)
            if out:
                meta = _json(out, "orbit_meta.json")
                text = _text(out, "orbit.csv")
                r.check(f"orbit {tag} energy", checks.orbit_csv_energy(
                    text, LAM, v0))
                r.check(f"orbit {tag} period/loop",
                        checks.period_matches_loop_integral(
                            meta["period"], meta["loop_integral"]))
                if tag == "cd":
                    r.check("orbit cd closed form", checks.constant_drift_orbit(
                        meta["p0"], meta["u0"], meta["period"],
                        meta["loop_integral"]))
                else:
                    r.check("orbit cdv golden", checks.golden_orbit(
                        meta, self.golden))
            out = self._run(ch, r, "subsolution", cfg, tag)
            if out:
                sub = _json(out, "subsolution.json")
                if tag == "cd":
                    r.check("subsolution cd epsilon",
                            checks.subsolution_epsilon(sub["epsilon"], LAM))
                    r.check("subsolution cd residual", checks.at_most(
                        "residual", sub["max_residual"], 1e-6))
                else:
                    r.check("subsolution cdv residual", checks.at_most(
                        "residual", sub["max_residual"], 1e-3))
        again = self._run(ch, r, "orbit", self.CDV[0], "cdv-again")
        if again and orbit_out["cdv"]:
            r.check("orbit repeat bit-identical", checks.identical(
                _text(orbit_out["cdv"], "orbit.csv"), _text(again, "orbit.csv"),
                "orbit.csv"))
        out = self._run(ch, r, "periodic", self.CDV[0], "cdv")
        if out:
            rep = _json(out, "periodic.json")
            r.check("periodic cdv golden period", checks.same_values(
                rep["period"], self.golden["period"], 1e-7, "|T-golden|"))
            r.check("periodic cdv slice gap", checks.period_residual_from_slices(
                _text(out, "periodic.csv"), rep["period_residual"]))
            r.check("periodic cdv accepted residual", checks.at_most(
                "residual", rep["period_residual"], 10 * 5e-3))
        out = self._run(ch, r, "bifurcate", self.CD[0], "cd")
        if out:
            r.check("bifurcation classes", checks.bifurcation_rows(
                checks.bifurcation_csv_rows(_text(out, "bifurcation.csv"))))

    def cleanup(self):
        shutil.rmtree(self.out, ignore_errors=True)


def _expect_zero(status):
    if status != 0:
        raise RuntimeError(f"exit status {status}")
    return status


def _text(out, name):
    with open(os.path.join(out, name), encoding="utf-8") as fh:
        return fh.read()


def _json(out, name):
    return json.loads(_text(out, name))


WORKLOADS = {w.name: w for w in (PeriodicCD256, ReachCD1024,
                                  GenericCharacteristics, CliConfigs)}
