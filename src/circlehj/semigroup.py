"""Implicit Lax-Oleinik evolution on a periodic grid.

One step of the backward semigroup computes, at every node,

    w(x) = min_v [ I(phi)(x - v dt) + dt * L(x, v, u_arg) ]

with periodic monotone linear interpolation I and the u-argument of the
Lagrangian resolved implicitly: the arrival value, iterated to a fixed
point from the datum (a contraction as long as kappa * dt < 1/2).  For
the quadratic family, whose Lagrangian is affine in u, the fixed point
collapses to a closed form, which the stepper exploits.  Any other model
takes two full window sweeps around a frozen-cell secant: the sweep at
the datum fixes each node's minimizing cell, a per-node secant solves
the fixed point on those cells alone (one cell and one Legendre batch
per node), and a second full sweep certifies the result by the rule of
plain iteration, starting another frozen round if a cell moved.  The
numeric Legendre momenta do not depend on their batch, so where no cell
moved the certifying sweep reproduces the frozen values bit for bit.

The velocity search takes the exact minimum over the whole window
|v| <= v_max: on each grid cell the foot crosses, the objective is convex
in v, so its minimum is the stationary point v = H_p(x, p, u), p the
cell's slope of the datum, clipped to the cell and the window (the exact
semi-Lagrangian per-cell minimum).  The minimizing cell is nondecreasing
in x, so the cells are searched by monotone divide and conquer: a fixed
number of cells per node, whatever the reach.  Each step gathers the
datum once into a copy unwrapped over every cell a window reaches; the
whole-window level reads its (node, column) blocks as sliding-window
views of that copy, with node and column tables broadcast to the block
once per workspace, and the finer levels gather their cells from it
once, with no modulo.  Below 32 columns the whole-window level takes
every node and is the answer.  Minima at the window ends +-v_max are
counted as window hits on the trace and added to the RunRecord that
``recording`` opens (the CLI opens one per command).  Every period-map
limit adds the periods it ran to the same record, and counts itself
there when it returns quasi-converged.

A quadratic-family step whose u-coupling contracts (lam < 0, so
1 - dt lam > 1) has a unique fixed point, the stationary limit of every
datum.  ``_policy_fixed_point`` solves for it by Howard's policy
iteration (Bokanowski, Maroso & Zidani, SIAM J. Numer. Anal. 47, 2009):
one window sweep fixes each node's velocity, one dense linear solve
evaluates that policy, and a sweep whose residual the contraction bound
turns into the tolerance certifies the result.  ``stationary_limit``
takes this solve where it applies and the period map elsewhere;
``estimate_critical_value`` runs it on the frozen model's discounted step.

The velocity and momentum window is the model's ``search`` field, so a
model object fixes its window.  A step reads a workspace, the tables
and buffers that (model object, grid, dt) determine.  ``_workspace_for``
builds it and keeps the last one in the calling thread's slot, to
return while all three match: the periods of a limit and the
evaluations of a reversibility solve step on one workspace.  Threads do
not share the slot.  ``estimate_critical_value`` builds its own.  The contraction
bound kappa*dt < 1/2 is checked once, when a workspace is built.
``evolve`` keeps the raw values of the running state, clips them to the
cap in place and builds a Field only for a snapshot; a Field derives its
cap mask from its values and cap.  INNER_TOL and INNER_MAX_ITER bound
the value fixed point of the generic step.

The forward semigroup is realized by conjugation: negate the datum,
evolve under the model H(x,-p,-u), negate back.
"""

from __future__ import annotations

import contextlib
import contextvars
import logging
import math
import threading
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (BracketFail, CapTooSmall, InnerNotConverged,
                     NoTrajectoryLanded, NotConverged)
from .flow import BLOW_LIMIT, _rk4_step, _step_count, contact_field
# DEFAULT_SEARCH and SearchParams are re-exported for sg.SearchParams(...)
from .model import (DEFAULT_SEARCH, HamiltonianModel,  # noqa: F401
                    SearchParams, conjugate_model, freeze_classical,
                    solve_p_star_batch)

_log = logging.getLogger(__name__)

# the generic step's value fixed point: its stopping increment, and the
# bound on its full window sweeps and on each frozen-cell round
INNER_TOL = 1e-12
INNER_MAX_ITER = 100


class AccuracyWarning(UserWarning):
    """Configuration degrades accuracy (never stability)."""


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on the unit circle; n must be a power of two."""

    n: int

    def __post_init__(self):
        if self.n < 64 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two >= 64, got {self.n}")

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.n) / self.n

    def nearest(self, x) -> int:
        return int(round((x % 1.0) * self.n)) % self.n


@dataclass
class Field:
    """Grid function, optionally with nodes pinned to a finite cap.

    Nodes at or above ``cap_value`` are capped: they stand in for the
    +infinity of pinned boundary data and are excluded from sup-norm
    diagnostics.
    """

    grid: Grid
    values: np.ndarray
    cap_value: Optional[float] = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).copy()
        if self.values.shape != (self.grid.n,):
            raise ValueError("field values must match the grid size")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")

    @property
    def cap_mask(self) -> Optional[np.ndarray]:
        """Nodes at the cap, values >= cap_value; None without a cap."""
        if self.cap_value is None:
            return None
        return self.values >= self.cap_value

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "Field":
        return cls(grid, np.full(grid.n, float(value)))

    @classmethod
    def pinned(cls, grid: Grid, x0: float, u0: float, cap: float) -> "Field":
        """Datum with value u0 at the node nearest x0 and the cap elsewhere
        (a u0 at or above the cap is capped too)."""
        vals = np.full(grid.n, float(cap))
        vals[grid.nearest(x0)] = float(u0)
        return cls(grid, vals, cap_value=float(cap))

    def copy(self) -> "Field":
        return Field(self.grid, self.values, self.cap_value)

    def free_values(self) -> np.ndarray:
        """Values at non-capped nodes."""
        mask = self.cap_mask
        return self.values if mask is None else self.values[~mask]

    def interp(self, x):
        """Periodic linear interpolation at arbitrary circle points."""
        return _interp_periodic(self.values, np.asarray(x, dtype=float))


def sup_dist(a: Field, b: Field) -> float:
    """Sup-norm distance ignoring nodes capped in either field."""
    mask = np.zeros(a.grid.n, dtype=bool)
    for field in (a, b):
        if field.cap_value is not None:
            mask |= field.cap_mask
    diff = np.abs(a.values - b.values)
    if mask.all():
        return 0.0
    return float(np.max(diff[~mask]))


def _interp_periodic(values, x):
    n = values.shape[0]
    s = np.asarray(x, dtype=float) * n
    i0 = np.floor(s).astype(int)
    frac = s - i0
    i0 = np.mod(i0, n)
    i1 = np.mod(i0 + 1, n)
    return values[i0] * (1.0 - frac) + values[i1] * frac


@dataclass
class EvolutionTrace:
    """Time-stamped snapshots of an evolution."""

    times: np.ndarray
    snapshots: list
    model_name: str
    dt: float
    diverged: bool = False
    # node-steps whose minimizing velocity was +-v_max at an uncapped
    # output node: the extremizer may lie outside the search window
    window_hits: int = 0

    @property
    def final(self) -> Field:
        return self.snapshots[-1]

    def at(self, t: float) -> np.ndarray:
        """Values at time t, linearly interpolated between snapshots."""
        times = self.times
        if t <= times[0]:
            return self.snapshots[0].values
        if t >= times[-1]:
            return self.snapshots[-1].values
        k = int(np.searchsorted(times, t, side="right")) - 1
        t0, t1 = times[k], times[k + 1]
        w = (t - t0) / (t1 - t0)
        return (1.0 - w) * self.snapshots[k].values + w * self.snapshots[k + 1].values

    def sup_norms(self):
        return np.array([float(np.max(np.abs(s.free_values()))) for s in self.snapshots])


@dataclass
class RunRecord:
    """Counts of one run that belong in its manifest, never in its data.

    The CLI writes every field, under its own name, to the manifest and
    to the run's closing log line."""

    # EvolutionTrace.window_hits summed over every evolve of the run
    window_hits: int = 0
    # periods run by every _iterate_to_limit of the run, summed
    limit_periods: int = 0
    # limits that _iterate_to_limit returned quasi-converged
    quasi_limits: int = 0
    # window sweeps run by every _policy_fixed_point of the run, summed
    policy_sweeps: int = 0


_RUN_RECORD: contextvars.ContextVar = contextvars.ContextVar(
    "circlehj_run_record", default=None)


@contextlib.contextmanager
def recording(record: RunRecord):
    """Add what every evolve in this context counts to ``record``."""
    token = _RUN_RECORD.set(record)
    try:
        yield record
    finally:
        _RUN_RECORD.reset(token)


class _StepWorkspace:
    """Per-(model, grid, dt) precomputation reused across steps; the
    velocity window is the model's.

    Column j of the velocity window is the cell k = i + offset[j] that
    holds the foot of node i; the velocities [v_lo[j], v_hi[j]] keep the
    foot in that cell.  The offsets are consecutive, so in the datum
    unwrapped over every cell a window reaches, values[_wrap], cell k of
    node i sits at position i + j: the (node, column) blocks of cell
    values and slopes are sliding-window views of that padded copy.
    Each step writes the padded copy into buffers of the workspace, so a
    workspace serves one step at a time.

    ``_workspace_for`` builds the workspaces of the steps and keeps the
    last one in the calling thread's slot; threads do not share it.
    ``estimate_critical_value`` and the checks that inspect a workspace
    build their own.
    """

    def __init__(self, model: HamiltonianModel, grid: Grid, dt: float):
        kdt = model.kappa * float(dt)
        if kdt >= 0.5:
            raise ValueError(f"kappa*dt = {kdt:g} >= 0.5 breaks the inner "
                             "contraction; reduce dt")
        self.model = model
        self.grid = grid
        self.dt = float(dt)
        search = model.search
        n = grid.n
        self.x = grid.nodes
        dtn = self.dt * n
        reach = search.v_max * dtn            # window half-width in cells
        offset = np.arange(math.floor(-reach), math.floor(reach) + 1)
        off = -offset.astype(float)           # foot at v = 0, cells past k
        v_lo = np.maximum(-search.v_max, (off - 1.0) / dtn)
        v_hi = np.minimum(search.v_max, off / dtn)
        # by round-off an end cell may hold no velocity of the window
        keep = v_lo <= v_hi
        self.offset = offset[keep]
        # per column: the foot offset off and the velocities [v_lo, v_hi]
        self._columns = np.stack([off, v_lo, v_hi])[:, keep]
        width = self.offset.size
        # node stride of the coarsest search level: the largest power of
        # two <= width/16, so that level costs about 16 cells per node
        wide = (width // 16).bit_length() - 1
        s = self.stride = min(n, 1 << max(0, wide))
        # for the quadratic family, L = L(x, v, 0) + lam u: the value fixed
        # point collapses, and the node tables (ab, n a, dt/(2a), dt V) give
        # the cell minimum: dt*L(x,v,0) = (v - ab)^2 dt/(2a) - dt V.
        # Without a record the only node table is x.
        q = model.quad_coeffs
        self.affine = None if q is None else q.lam
        self._nodes = self.x[None]
        if q is not None:
            av, bv, Vv = (np.broadcast_to(np.asarray(f(self.x), float),
                                          self.x.shape)
                          for f in (q.a, q.b, q.V))
            self._nodes = np.stack([av * bv, n * av, self.dt / (2.0 * av),
                                    self.dt * Vv])
        # buffers for the padded datum and its cell slopes; the whole-window
        # level reads every s-th node through views of them and through the
        # tables broadcast to its (rows, columns) shape once, since
        # same-shape operands run faster than broadcast ones
        self._wrap = np.arange(self.offset[0], n + self.offset[-1] + 1) % n
        self._node_index = np.arange(n)
        self._ext = np.empty(n + width)
        self._slope = np.empty(n + width - 1)
        # the whole-window level scans rows 0, s, 2s, ...; each finer level
        # the rows midway between those of the levels above it
        rows = self._rows = np.arange(0, n, s)
        self._at = np.arange(rows.size)
        self._levels = [np.arange(r, n, 2 * r)
                        for r in (s >> k for k in range(1, s.bit_length()))]
        shape = (rows.size, width)
        self._coarse = (
            sliding_window_view(self._ext[:-1], width)[::s],
            sliding_window_view(self._slope, width)[::s],
            np.broadcast_to(self._columns[:, None, :], (3,) + shape).copy(),
            np.broadcast_to(self._nodes[:, rows, None],
                            self._nodes.shape[:1] + shape).copy())

    def _L_at(self, x, v, u):
        """Numeric Lagrangian of a model without a coefficient record."""
        p = solve_p_star_batch(self.model, x, v, u)
        return v * p - self.model.eval_H(x, p, u)

    def _load(self, values):
        """Write the datum, unwrapped over every cell a window reaches, and
        its cell slopes phi_{k+1} - phi_k into the buffers: column j of
        node i is position i + j."""
        ext = self._ext
        ext[:] = values[self._wrap]
        np.subtract(ext[1:], ext[:-1], out=self._slope)

    def cell_block(self, values, u):
        """Cell minima and their velocities of every node over every
        window column, as (n, W) arrays: what window_minimum searches."""
        self._load(values)
        width = self.offset.size
        return self._cell_minimum(
            sliding_window_view(self._ext[:-1], width),
            sliding_window_view(self._slope, width),
            self._columns[:, None, :], self._nodes[:, :, None], u,
            np.arange(self.grid.n)[:, None])

    def _cell_minimum(self, phi_k, slope, columns, nodes, u, i):
        """Exact min over the velocities of a window column of
        I(values)(x_i - v dt) + dt L(x_i, v, u_i), elementwise over the
        broadcast cells, given each cell k = i + offset[j]'s datum phi_k
        and slope phi_{k+1} - phi_k, its column's tables (off, v_lo, v_hi)
        and its node's tables.

        On the cell, the P1 interpolant is affine in v with slope
        -dt n (phi_{k+1} - phi_k), and L is convex in v, so the objective
        is convex on the cell.  Its stationary point is v = H_p(x, p, u)
        with p = n (phi_{k+1} - phi_k), where L_v = p; clipped to the cell
        and the window it is the minimum on the cell.  For the quadratic
        family the node tables give the vertex ab + n a (phi_{k+1} - phi_k)
        and the parabola, and u is unused.  Returns the minimum and its
        velocity.
        """
        n = self.grid.n
        dtn = self.dt * n
        off, v_lo, v_hi = columns
        if self.affine is not None:
            ab, na, inv2a_dt, dtV = nodes
            # phi_k + (off - vv dtn) slope + (vv - ab)^2 dt/(2a) - dt V,
            # in place, in that order
            vv = na * slope
            vv += ab
            np.maximum(vv, v_lo, out=vv)
            np.minimum(vv, v_hi, out=vv)
            d = vv - ab
            d *= d
            d *= inv2a_dt
            total = vv * dtn
            np.subtract(off, total, out=total)
            total *= slope
            total += phi_k
            total += d
            total -= dtV
        else:
            x, uu = nodes[0], u[i]
            p = n * slope
            # the numeric L clamps p* to [-p_max, p_max] and is linear in v
            # beyond; a steeper cell is monotone, minimal at an end
            vertex = np.where(np.abs(p) <= self.model.search.p_max,
                              self.model.d_p(x, p, uu), np.copysign(np.inf, p))
            vv = np.clip(vertex, v_lo, v_hi)
            total = (phi_k + (off - vv * dtn) * slope
                     + self.dt * self._L_at(x, vv, uu))
        return total, vv

    def window_minimum(self, values, u):
        """Exact min over |v| <= v_max of I(values)(x - v dt) + dt L(x, v, u)
        at every node, and its velocity (u held fixed per node).

        The minimizing foot cell is nondecreasing in x, so the row minima
        are found by monotone divide and conquer (Aggarwal et al., 1987).
        Every stride-th node scans the whole window, read from views of
        the padded datum.  Each finer level halves the stride and scans
        only the cells between the argmin cells of the node's two
        neighbours, plus one cell on each side: a minimum on a grid node
        is shared by two cells whose values differ by round-off.  Ties go
        to the leftmost cell.  Returns the minima, their velocities and
        each node's window column of its minimizing cell.
        """
        n, s, width = self.grid.n, self.stride, self.offset.size
        self._load(values)
        rows, at = self._rows, self._at
        total, vv = self._cell_minimum(*self._coarse, u, rows[:, None])
        j = np.argmin(total, axis=1)
        if s == 1:
            return total[at, j], vv[at, j], j
        best, v_star = np.empty(n), np.empty(n)
        # padded position i + j of each node's argmin cell; entry n is
        # node 0 one turn on
        col = np.empty(n + 1, dtype=np.int64)
        best[::s], v_star[::s] = total[at, j], vv[at, j]
        col[:n:s] = rows + j
        col[n] = col[0] + n
        for rows in self._levels:
            s //= 2
            # the rows s, 3s, ...: neighbours at rows -+ s, results at rows
            left, right = col[:n - s:2 * s], col[2 * s::2 * s]
            lo = np.maximum(np.minimum(left, right) - 1, rows) - rows
            hi = np.minimum(np.maximum(left, right) + 1 - rows, width - 1)
            counts = hi - lo + 1
            starts = np.cumsum(counts) - counts
            j = np.arange(counts.sum()) - np.repeat(starts - lo, counts)
            ri = np.repeat(rows, counts)
            pos = ri + j
            total, vv = self._cell_minimum(
                self._ext[pos], self._slope[pos],
                np.take(self._columns, j, axis=1),
                np.take(self._nodes, ri, axis=1), u, ri)
            low = np.minimum.reduceat(total, starts)
            hits = np.flatnonzero(total == np.repeat(low, counts))
            at = hits[np.searchsorted(hits, starts)]
            best[s::2 * s], v_star[s::2 * s] = low, vv[at]
            col[s:n:2 * s] = rows + j[at]
        return best, v_star, col[:n] - self._node_index

    def frozen_cells(self, j):
        """The map u -> cell minima and velocities of each node i in its
        window column j[i] only, read from the datum the last
        window_minimum loaded."""
        i = self._node_index
        pos = i + j
        cells = (self._ext[pos], self._slope[pos],
                 np.take(self._columns, j, axis=1), self._nodes)
        return lambda u: self._cell_minimum(*cells, u, i)


def lax_oleinik_step(model: HamiltonianModel, phi: Field, dt: float) -> Field:
    """One implicit Lax-Oleinik step of size dt.

    Capped nodes of the input participate with their cap value; the
    output is re-capped at the same level.  Raises InnerNotConverged if
    the value fixed point stalls (impossible while kappa*dt < 1/2) and
    ValueError when dt breaks that contraction bound.
    """
    ws = _workspace_for(model, phi.grid, dt)
    raw, _ = _step_values(ws, phi.values)
    cap = phi.cap_value
    if cap is None:
        return Field(phi.grid, raw)
    return Field(phi.grid, np.minimum(raw, cap, out=raw), cap)


_SLOT = threading.local()


def _workspace_for(model, grid, dt):
    """The step workspace of this model object, grid and dt (the model
    carries its window): the one in the calling thread's slot while all
    three match, else a new one, which takes the slot.  Reuse changes no
    value."""
    ws = getattr(_SLOT, "workspace", None)
    if ws is None or ws.model is not model or ws.grid != grid or ws.dt != dt:
        _SLOT.workspace = None          # free the old buffers first
        ws = _SLOT.workspace = _StepWorkspace(model, grid, dt)
    return ws


def _step_values(ws: _StepWorkspace, values: np.ndarray):
    """Values after one step, a new array, and a mask of nodes whose
    minimizing velocity is an end of the velocity window."""
    step = _step_affine if ws.affine is not None else _step_generic
    w, v_star = step(ws, values)
    return w, np.abs(v_star) == ws.model.search.v_max


def _step_affine(ws: _StepWorkspace, values):
    best, v_star, _ = ws.window_minimum(values, None)
    best /= 1.0 - ws.dt * ws.affine
    return best, v_star


def _step_generic(ws: _StepWorkspace, values):
    """Value fixed point w = g(w), g the window minimum with L evaluated at
    u = w, started from the datum.

    Node i's minimum reads u at node i only, so the fixed point is n
    scalar equations w_i = g_i(w_i), each with slope at most kappa dt
    < 1/2.  A full sweep g(w) also gives each node's minimizing cell;
    with those cells frozen, the map costs one cell per node, and a
    per-node secant solves it (``_frozen_fixed_point``).  The next full
    sweep, at that solution w, certifies it by the rule of plain
    iteration: it returns g(w) once max|g(w) - w| < INNER_TOL, and
    otherwise its cells start the next frozen round.  A sweep that does
    not move less than the sweep before it ends the frozen rounds: the
    step carries on with plain sweeps w = g(w).  INNER_MAX_ITER bounds
    the full sweeps.
    """
    w, last, plain = values, math.inf, False
    for _ in range(INNER_MAX_ITER):
        g, v_star, j = ws.window_minimum(values, w)
        delta = float(np.max(np.abs(g - w)))
        if delta < INNER_TOL:
            return g, v_star
        plain = plain or delta >= last
        w = g if plain else _frozen_fixed_point(ws.frozen_cells(j), w, g)
        last = delta
    raise InnerNotConverged(
        f"inner value iteration still moving by {delta:g} after "
        f"{INNER_MAX_ITER} sweeps"
    )


def _frozen_fixed_point(cells, w0, g0):
    """Per-node secant on w = cells(w)[0], from the pair g0 = cells(w0)[0].

    Returns the first iterate w with max|cells(w)[0] - w| < INNER_TOL, or
    the last of INNER_MAX_ITER.  A node takes the plain step w = cells(w)
    where the secant slope is not finite or not below 1/2 in size, which
    the contraction bound rules out but round-off does not.
    """
    w_prev, g_prev, w = w0, g0, g0
    for _ in range(INNER_MAX_ITER):
        g = cells(w)[0]
        f = g - w
        if float(np.max(np.abs(f))) < INNER_TOL:
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = (g - g_prev) / (w - w_prev)
            secant = w + f / (1.0 - slope)
        w_prev, g_prev = w, g
        w = np.where(np.abs(slope) < 0.5, secant, g)
    return w


def _warn_if_coarse(dt, grid, search):
    """AccuracyWarning, on the caller's caller, when dt > h/v_max."""
    if dt > grid.h / max(search.v_max, 1e-300):
        warnings.warn(
            f"dt = {dt:g} exceeds h/v_max = {grid.h / search.v_max:g}; "
            "feet span several cells per step (accuracy, not stability)",
            AccuracyWarning, stacklevel=3)


def evolve(model: HamiltonianModel, phi: Field, T: float, dt: float,
           snapshot_every: Optional[float] = None,
           u_cap: float = 50.0) -> EvolutionTrace:
    """Run the backward semigroup for time T, collecting snapshots.

    dt is an upper bound; the actual step is T/steps so the horizon is hit
    exactly.  Uncapped evolutions whose sup-norm exceeds u_cap/2 are
    truncated and flagged as diverged (a legitimate long-time regime),
    never discarded.  Raises ValueError when dt breaks kappa*dt < 1/2.
    """
    if T < 0.0:
        raise ValueError("T must be nonnegative")
    grid = phi.grid
    if T == 0.0:
        return EvolutionTrace(np.array([0.0]), [phi.copy()], model.name, dt)
    steps = _step_count(T, dt)
    dt_eff = T / steps
    _warn_if_coarse(dt_eff, grid, model.search)
    stride = steps if snapshot_every is None else max(1, round(snapshot_every / dt_eff))
    ws = _workspace_for(model, grid, dt_eff)
    cap = phi.cap_value
    half = u_cap / 2.0
    times = [0.0]
    snaps = [phi.copy()]
    values = phi.values
    diverged = False
    hits = 0
    for k in range(1, steps + 1):
        values, edge = _step_values(ws, values)
        if cap is not None:
            np.minimum(values, cap, out=values)
            edge &= values < cap
        hits += int(np.count_nonzero(edge))
        if k % stride == 0 or k == steps:
            times.append(k * dt_eff)
            snaps.append(Field(grid, values, cap))
        # a non-finite sup-norm stops here too: its Field raises ValueError
        if cap is None:
            top = float(np.max(np.abs(values)))
            if top > half or not math.isfinite(top):
                diverged = True
                if times[-1] != k * dt_eff:
                    times.append(k * dt_eff)
                    snaps.append(Field(grid, values))
                break
    record = _RUN_RECORD.get()
    if record is not None:
        record.window_hits += hits
    if hits:
        _log.info("evolve %s to t = %.6g: %d window hits", model.name,
                  times[-1], hits)
    return EvolutionTrace(np.array(times), snaps, model.name, dt_eff,
                          diverged=diverged, window_hits=hits)


def evolve_forward(model: HamiltonianModel, phi: Field, T: float, dt: float,
                   snapshot_every: Optional[float] = None,
                   u_cap: float = 50.0) -> EvolutionTrace:
    """Forward semigroup via conjugation: -T~(-phi) under H(x,-p,-u).

    Raises ValueError on capped data: negated, a cap at +infinity would
    be one at -infinity, which no finite cap stands in for.
    """
    if phi.cap_value is not None:
        raise ValueError("evolve_forward takes uncapped data only")
    trace = evolve(conjugate_model(model), Field(phi.grid, -phi.values), T,
                   dt, snapshot_every=snapshot_every, u_cap=u_cap)
    snaps = [Field(s.grid, -s.values) for s in trace.snapshots]
    return EvolutionTrace(trace.times, snaps, model.name, trace.dt,
                          diverged=trace.diverged,
                          window_hits=trace.window_hits)


def _has_caps(field: Field) -> bool:
    mask = field.cap_mask
    return mask is not None and bool(mask.any())


def _iterate_to_limit(advance, start: Field, tol, n_max, accept_tol):
    """Iterate a period map to (quasi) stationarity.

    Its callers are the pinned and long-time periodic limits and
    ``stationary_limit`` where the step does not contract (no coefficient
    record, or the repelling maps of the decreasing regime, as for
    ``weak_kam_backward`` there) or the datum is capped.

    ``advance`` maps a field to the EvolutionTrace of one period.  An
    increment (sup distance between consecutive iterates) counts only
    when neither field of the period has capped nodes.  The iteration
    stops converged at an increment <= tol.  It turns around once three
    increments are counted and the newest exceeds twice the best: in the
    decreasing case the scheme repels every datum that does not touch the
    stationary state exactly, so grid-level errors eventually amplify.  A
    diverged trace also ends it.  After a turn-around or a spent budget
    of n_max periods the best iterate is returned with an AccuracyWarning
    if its increment is <= accept_tol; otherwise NotConverged is raised.

    Returns (state, counted increments, periods run, quasi-converged).
    """
    current = start
    history = []
    best_gap, best = math.inf, None
    n_done = 0
    diverged = False
    record = _RUN_RECORD.get()
    for n_done in range(1, n_max + 1):
        trace = advance(current)
        if record is not None:
            record.limit_periods += 1
        if trace.diverged:
            diverged = True
            break
        nxt = trace.final
        capped = _has_caps(current) or _has_caps(nxt)
        gap = sup_dist(nxt, current)
        current = nxt
        if capped:
            continue
        history.append(gap)
        if gap < best_gap:
            best_gap, best = gap, nxt
        if gap <= tol:
            _log_limit("converged", n_done, history)
            return nxt, history, n_done, False
        if len(history) >= 3 and gap > 2.0 * best_gap:
            break
    if best is not None and best_gap <= accept_tol:
        warnings.warn(
            f"limit stagnated at increment {best_gap:g} > tol {tol:g}; "
            "returning the best iterate", AccuracyWarning, stacklevel=3)
        if record is not None:
            record.quasi_limits += 1
        _log_limit("quasi-converged", n_done, history)
        return best, history, n_done, True
    _log_limit("diverged" if diverged else "not converged", n_done, history)
    raise NotConverged(
        f"increment only reached {best_gap:g} after {n_done} periods "
        f"(tol {tol:g}, accept {accept_tol:g})"
        + ("; the evolution diverged" if diverged else ""))


def _log_limit(outcome, periods, history):
    _log.info("period-map limit %s after %d periods, last increment %s",
              outcome, periods, f"{history[-1]:.3g}" if history else "none")


def _contracting_workspace(model: HamiltonianModel, grid: Grid, dt: float):
    """Workspace of the step that evolve takes over one unit period at dt,
    if that step is a contraction (a coefficient record with lam < 0);
    None otherwise."""
    q = model.quad_coeffs
    if q is None or q.lam >= 0.0:
        return None
    return _workspace_for(model, grid, 1.0 / _step_count(1.0, dt))


def _policy_fixed_point(ws: _StepWorkspace, w0: np.ndarray, tol: float,
                        rate: float):
    """Fixed point of S(w) = best(w) / rate, best the window minimum of
    ``ws`` at u = 0 and rate > 1, by Howard's policy iteration from the
    policy of w0.  Precondition: the window minimum does not depend on u,
    as for a quadratic-family (rate = 1 - dt lam) or frozen model.

    S is a min-plus contraction of rate 1/rate.  Each sweep is one
    window_minimum at w, which gives S(w) and each node's window column j
    and velocity v*, and so the foot cell k = i + offset[j] and fraction
    theta = off_j - v* dt n.  The sweep certifies w once
    max|S(w) - w| <= (1 - 1/rate) tol, which puts w within tol of the
    fixed point.  Otherwise the policy is evaluated by one dense solve of
        rate w_i - (1 - theta_i) w_k - theta_i w_{k+1} = c_i,
    c_i = best_i less its interpolated datum, an M-matrix system since
    every row sums to rate - 1 > 0.

    Each sweep counts in the run record, and the certifying sweep's
    nodes at +-v_max count as window hits.  Returns (w, certifying
    residual); raises NotConverged after INNER_MAX_ITER sweeps.
    """
    _warn_if_coarse(ws.dt, ws.grid, ws.model.search)
    bound = (1.0 - 1.0 / rate) * tol
    n = ws.grid.n
    i = ws._node_index
    record = _RUN_RECORD.get()
    w = np.asarray(w0, dtype=float)
    for sweep in range(1, INNER_MAX_ITER + 1):
        best, v_star, j = ws.window_minimum(w, np.zeros(n))
        if record is not None:
            record.policy_sweeps += 1
        residual = float(np.max(np.abs(best / rate - w)))
        if residual <= bound:
            if record is not None:
                record.window_hits += int(np.count_nonzero(
                    np.abs(v_star) == ws.model.search.v_max))
            _log.info("policy fixed point after %d sweeps, residual %.3g",
                      sweep, residual)
            return w, residual
        theta = ws._columns[0, j] - v_star * (ws.dt * n)
        k = (i + ws.offset[j]) % n
        k1 = (k + 1) % n
        matrix = np.zeros((n, n))
        matrix[i, i] = rate
        matrix[i, k] -= 1.0 - theta
        matrix[i, k1] -= theta
        w = np.linalg.solve(
            matrix, best - (1.0 - theta) * w[k] - theta * w[k1])
    raise NotConverged(
        f"policy iteration residual still {residual:g} after "
        f"{INNER_MAX_ITER} sweeps (certifies at {bound:g})")


def stationary_limit(model: HamiltonianModel, start: Field, tol, t_max, dt,
                     accept_tol=None):
    """(limit, gap): the stationary limit of T- from ``start``.

    Where the step contracts (a coefficient record with lam < 0) and
    ``start`` is uncapped, it is the fixed point by ``_policy_fixed_point``
    and the gap its certifying residual.  Otherwise the period-1 map
    runs through ``_iterate_to_limit`` within ceil(t_max) periods,
    accepting an increment <= accept_tol (tol by default), and the gap is
    the last counted increment.
    """
    ws = (_contracting_workspace(model, start.grid, dt)
          if start.cap_value is None else None)
    if ws is not None:
        w, gap = _policy_fixed_point(ws, start.values, tol,
                                     1.0 - ws.dt * ws.affine)
        return Field(start.grid, w), gap
    limit, history, _, _ = _iterate_to_limit(
        lambda f: evolve(model, f, 1.0, dt), start, tol,
        math.ceil(t_max), tol if accept_tol is None else accept_tol)
    return limit, history[-1]


def weak_kam_forward(model: HamiltonianModel, grid: Grid, tol=1e-6, t_max=80.0,
                     dt: Optional[float] = None,
                     phi0: Optional[Field] = None) -> Field:
    """Forward weak KAM solution: the stationary limit of T+ from phi0
    (zero by default), to within tol.

    T+ negates the backward semigroup of the conjugate model, so this is
    the negated ``stationary_limit`` of that model from -phi0.  Raises
    ValueError on capped data, as evolve_forward does.
    """
    dt = grid.h if dt is None else dt
    start = phi0 if phi0 is not None else Field.constant(grid, 0.0)
    if start.cap_value is not None:
        raise ValueError("weak_kam_forward takes uncapped data only")
    limit, _ = stationary_limit(conjugate_model(model),
                                Field(grid, -start.values), tol, t_max, dt)
    return Field(grid, -limit.values)


def weak_kam_backward(model: HamiltonianModel, u_plus: Field, tol=1e-6,
                      t_max=80.0, dt: Optional[float] = None) -> Field:
    """Backward weak KAM solution: the ``stationary_limit`` from u_plus.

    For strictly decreasing models the stationary state repels every
    datum that does not touch it exactly, so the grid-level error of
    u_plus eventually amplifies.  The iteration therefore returns the
    quasi-stationary iterate (smallest period-1 increment) when the
    increment turns around before reaching tol; it must at least dip
    to 5e-3, otherwise NotConverged is raised.
    """
    dt = u_plus.grid.h if dt is None else dt
    return stationary_limit(model, u_plus, tol, t_max, dt, 5e-3)[0]


def estimate_critical_value(model: HamiltonianModel) -> float:
    """Critical value c of the frozen Hamiltonian H(x, p, 0) by vanishing
    discount (Davini, Fathi, Iturriaga & Zavidovique, Invent. Math. 206,
    2016): the solution w of eps w + H(x, w_x, 0) = 0 has -eps w -> c
    with an error O(eps).  Its scheme, w = S(w) / (1 + dt eps) with S a
    step of the frozen model, is solved from zero at n = 128, dt = 4e-3,
    for eps = 1e-3 and eps/10 on one workspace, each to 1e-3 in w, and
    c(eps) = -eps min w.  Returns the Richardson value
    (10 c(eps/10) - c(eps)) / 9, which cancels the O(eps) term; the solve
    tolerances put it within 2.3e-7 of its value at the exact fixed
    points.  Raises NotConverged when a solve does not certify.
    """
    eps, dt = 1e-3, 4e-3
    ws = _StepWorkspace(freeze_classical(model), Grid(128), dt)

    def c_at(discount):
        w, _ = _policy_fixed_point(ws, np.zeros(ws.grid.n), 1e-3,
                                   1.0 + dt * discount)
        return -discount * float(np.min(w))

    c_eps = c_at(eps)
    # the second solve on the workspace would repeat the first's warning
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        c_tenth = c_at(eps / 10.0)
    c = (10.0 * c_tenth - c_eps) / 9.0
    _log.info("critical value %.10g by extrapolation from %g", c, eps)
    return c


@dataclass
class ActionResult:
    """Implicit action value with provenance."""

    x0: float
    u0: float
    x: float
    t: float
    value: float
    method: str
    cap_used: float
    grid_value: Optional[float] = None
    shooting_value: Optional[float] = None

    @property
    def cross_gap(self) -> Optional[float]:
        if self.grid_value is None or self.shooting_value is None:
            return None
        return abs(self.grid_value - self.shooting_value)


def _flow_batch(model, x0, p0, u0, t_total, dt):
    """Vectorized RK4 for the contact system over a batch of momenta.

    Integrates for |t_total| forward (t_total > 0) or backward in time and
    returns (x unreduced, p, u, alive mask).  A member stops where |p| or
    |u| exceeds BLOW_LIMIT or a value turns non-finite.
    """
    direction = 1.0 if t_total >= 0.0 else -1.0
    t_abs = abs(t_total)
    steps = _step_count(t_abs, dt)
    h = direction * t_abs / steps
    x, p, u = np.broadcast_arrays(np.asarray(x0, dtype=float),
                                  np.asarray(p0, dtype=float),
                                  np.asarray(u0, dtype=float))
    alive = np.ones(x.shape, dtype=bool)
    field = contact_field(model)
    for k in range(steps):
        xn, pn, un = _rk4_step(field, k * h, (x, p, u), h)
        x = np.where(alive, xn, x)
        p = np.where(alive, pn, p)
        u = np.where(alive, un, u)
        alive &= (np.abs(p) <= BLOW_LIMIT) & (np.abs(u) <= BLOW_LIMIT)
        alive &= np.isfinite(x) & np.isfinite(p) & np.isfinite(u)
    return x, p, u, alive


def _landing_brackets(d, alive):
    """Neighbouring fan members between which a trajectory lands.

    d is the unreduced miss x_end - x of each member.  Members i and i+1,
    both alive, bracket a landing iff some integer lies between d_i and
    d_{i+1}; k = floor(max(d_i, d_{i+1})) is the largest, and d - k
    changes sign on the pair.  A wrap jump of the circle distance across
    x + 1/2 is not a bracket.  Returns (indices i, shifts k).
    """
    k = np.floor(np.maximum(d[:-1], d[1:]))
    idx = np.nonzero(alive[:-1] & alive[1:]
                     & (k >= np.minimum(d[:-1], d[1:])))[0]
    return idx, k[idx]


def _shooting_action(model, x0, u0, x, t, direction):
    """Action value from characteristics: extremal landed endpoint value.

    Forward: integrate from (x0, p, u0) for time t over a momentum fan,
    solve every landing bracket for x_end = x + k by Illinois regula
    falsi (at most 52 batches), and take the minimum arrival value among
    the landings within 1e-6 of x.  Backward: integrate backward in time
    and take the maximum departure value (the dual extremum).
    """
    sign = 1.0 if direction == "forward" else -1.0
    p_max = model.search.p_max
    p_grid = np.linspace(-p_max, p_max, 257)
    for attempt in range(3):
        xe, _, ue, alive = _flow_batch(model, np.full(p_grid.shape, float(x0)),
                                       p_grid, float(u0), sign * t, 2.5e-3)
        idx, k = _landing_brackets(xe - x, alive)
        lo, hi = p_grid[idx], p_grid[idx + 1]
        f_lo, f_hi = xe[idx] - x - k, xe[idx + 1] - x - k
        low_end = np.abs(f_lo) <= np.abs(f_hi)
        best_f = np.where(low_end, f_lo, f_hi)
        best_u = np.where(low_end, ue[idx], ue[idx + 1])
        side = np.zeros(idx.shape)      # endpoint replaced last: -1 lo, +1 hi
        for _ in range(52):
            mid = 0.5 * (lo + hi)
            act = np.nonzero((np.abs(best_f) > 1e-13) & (lo < mid)
                             & (mid < hi))[0]
            if not act.size:
                break
            a, b, fa, fb = lo[act], hi[act], f_lo[act], f_hi[act]
            q = (a * fb - b * fa) / (fb - fa)
            q = np.where((a < q) & (q < b), q, mid[act])
            xq, _, uq, aq = _flow_batch(model, np.full(q.shape, float(x0)), q,
                                        float(u0), sign * t, 2.5e-3)
            fq = np.where(aq, xq - x - k[act], np.nan)
            better = np.abs(fq) < np.abs(best_f[act])
            best_f[act] = np.where(better, fq, best_f[act])
            best_u[act] = np.where(better, uq, best_u[act])
            # Illinois: halve the kept end's value when it is kept twice
            new_side = np.where(fq * fa > 0.0, -1.0, 1.0)
            repeat = new_side == side[act]
            f_lo[act] = np.where(new_side < 0.0, fq,
                                 np.where(repeat, 0.5 * fa, fa))
            f_hi[act] = np.where(new_side > 0.0, fq,
                                 np.where(repeat, 0.5 * fb, fb))
            lo[act] = np.where(new_side < 0.0, q, a)
            hi[act] = np.where(new_side > 0.0, q, b)
            side[act] = new_side
        vals = best_u[np.abs(best_f) < 1e-6]
        if vals.size:
            return float(vals.min() if direction == "forward" else vals.max())
        p_grid = np.linspace(-p_max, p_max, (p_grid.size - 1) * 4 + 1)
    raise NoTrajectoryLanded(
        f"no characteristic from x0 = {x0:g} reached x = {x:g} at t = {t:g}"
    )


def action_function(model: HamiltonianModel, x0, u0, x, t, direction="forward",
                    method="grid", grid: Optional[Grid] = None, dt=1e-3,
                    u_cap=50.0) -> ActionResult:
    """Implicit action with pinned initial (forward) or terminal (backward) value.

    The grid method evolves a pinned-cap datum and reads the node nearest
    x; the shooting method extremizes over characteristic endpoints and
    serves as an independent cross-check.  method is one of
    {"grid", "shooting", "both"}.
    """
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    if method not in ("grid", "shooting", "both"):
        raise ValueError("method must be 'grid', 'shooting' or 'both'")
    grid_value = None
    shoot_value = None
    if method in ("grid", "both"):
        g = grid or Grid(256)
        if t < 10.0 * dt - 1e-12:
            raise ValueError(f"t = {t:g} below the reliability floor 10*dt = {10 * dt:g}")
        # backward: the forward action of the conjugate model, negated
        sign = 1.0 if direction == "forward" else -1.0
        m = model if sign > 0.0 else conjugate_model(model)
        trace = evolve(m, Field.pinned(g, x0, sign * u0, u_cap), t, dt,
                       u_cap=u_cap)
        raw = float(trace.final.values[g.nearest(x)])
        grid_value = sign * raw
        if raw >= 0.99 * u_cap:
            raise CapTooSmall(
                f"action value {grid_value:g} is within 1% of the cap {u_cap:g}"
            )
    if method in ("shooting", "both"):
        shoot_value = _shooting_action(model, x0, u0, x, t, direction)
    value = grid_value if grid_value is not None else shoot_value
    return ActionResult(x0=float(x0), u0=float(u0), x=float(x), t=float(t),
                        value=value, method=method, cap_used=u_cap,
                        grid_value=grid_value, shooting_value=shoot_value)


def solve_reversibility(model: HamiltonianModel, x0, x, t, target_u,
                        bracket=(-50.0, 50.0), grid: Optional[Grid] = None,
                        dt=1e-3, u_cap=50.0) -> float:
    """Initial value u0 with pinned action h_{x0,u0}(x, t) = target_u.

    Bisection, using the strict monotonicity of the action in its pinned
    value, to within 1e-6 of the target in at most 200 halvings.  Raises
    BracketFail when the bracket endpoints do not straddle the target.
    """
    g = grid or Grid(256)
    lo, hi = float(bracket[0]), float(bracket[1])
    # the cap must clear the image of the whole bracket (cap-independence
    # makes the exact level irrelevant as long as it never binds)
    cap = max(u_cap, 2.0 * max(abs(lo), abs(hi)) * math.exp(model.kappa * t)
              + 1.0)

    def action_at(u0v):
        return action_function(model, x0, u0v, x, t, grid=g, dt=dt,
                               u_cap=cap).value
    f_lo = action_at(lo) - target_u
    f_hi = action_at(hi) - target_u
    if f_lo > 0.0 or f_hi < 0.0:
        raise BracketFail(
            f"action at bracket ends ({f_lo + target_u:g}, {f_hi + target_u:g}) "
            f"does not straddle {target_u:g}"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = action_at(mid) - target_u
        if abs(f_mid) <= 1e-6:
            return mid
        if f_mid > 0.0:
            hi = mid
        else:
            lo = mid
    raise NotConverged(f"reversibility bisection stalled on [{lo:g}, {hi:g}]")
