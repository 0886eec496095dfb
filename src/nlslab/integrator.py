"""Strang split-step Fourier integrator for i u_t - Lap u + lambda u|u|^alpha = 0.

Both substeps are exact flows:

  * nonlinear: d_t u = i lambda u |u|^alpha, so u <- u * exp(i lambda dt |u|^alpha)
    (|u| is invariant along this flow);
  * linear: coefficients gain exp(+i t (|xi|^2 + n^2)), matching the
    free-flow convention used by field.free_evolve.

All time-stepping error is therefore pure Strang splitting error, second
order in dt.  Both substeps preserve the l^2 norm of the coefficients, so
mass is conserved to rounding.

Between two samples the interior half kicks are fused into one full kick,
K(dt/2) L (K(dt) L)^(n-1) K(dt/2) with L the linear flow: since |u| is
invariant along the kick, K(dt/2) K(dt/2) = K(dt) and only rounding changes.
The step runs in place on one state buffer that evolve owns, so it allocates
no full-grid temporary per step beyond the kick's own scratch.

The linear phase is a product of per-axis 1-D exponentials, since the
symbol |xi|^2 + n^2 is separable.  evolve builds each snapshot from the
state with one forward transform, and returns the last snapshot it emitted;
only the step-0 snapshot of a y-dependent datum is the datum itself.

The equation commutes with translations in y, so a datum whose samples are
exactly equal along y (field.y_independent) stays so, and its run is NLS on
R^d.  field.y_independent judges that from what the datum holds, with no
transform: a field built from a y column is; a field whose samples are
cached compares them along y; a field of coefficients only, as load_field
returns a file datum, is when every coefficient at n != 0 is zero.  evolve
then steps one y column, (Nx,)^d x 1, with the n = 0 row of the linear
phase, the only row it builds.  The start column is what the datum holds
(field._y_column): the column it was built from, else the n = 0 column of
its cached samples, else the x-only inverse of its n = 0 coefficient
column, which is samples()[..., :1] byte for byte up to the sign of a zero
sample.  The finiteness check reads that column, so no full-grid array is
made before the first step but the step-0 snapshot's coefficients.
The FFT pair of a step then runs over the x axes only,
since a length-1 transform is the identity, and each snapshot, step 0
included, is built from the column: SpectralField.from_samples takes its x
transform, puts it at n = 0 with zeros elsewhere, and keeps the column,
whose read-only broadcast view is the snapshot's samples.  The step-0
snapshot thus has the datum's samples, and its coefficients are the
datum's up to one round trip of the transform pair.
The kick is elementwise, and a power-of-two FFT of a constant y row has exact
zeros for n != 0 and Ny times the column at n = 0 (scaling by a power of two
is exact away from underflow), so the snapshot samples are bitwise those of
the full-grid run, and the coefficients differ from it only in the sign of
the zeros at n != 0 (np.array_equal holds, a byte comparison does not).
The run costs about 1/Ny of the full grid's stepping work, and no step or
snapshot transforms the full grid.  The snapshot keeps its column, so the
guard and the record a sink takes of it work on the column alone too, each
y sum Ny times the column's (see the field module docstring).  That record
agrees with the full-grid record of the same samples up to the y sums'
rounding, within the recursive-summation bound.

Inside evolve the stepping state is y-first: shape (Ny, Nx...), C-contiguous,
so that every x line is contiguous and the x transforms, the larger part of
a step on a grid such as 16384 x 16, read no strided axis.  The datum's
samples are moved to that layout by the one copy that gives evolve its own
state, the linear phase is written into it once per run, and each snapshot
is built from an x-first copy of the state, so snapshots, sinks and files
keep the (x..., y) layout.  A y column, (Nx,)^d x 1, is (1, Nx...) in this
layout, the same memory.  The step transforms the x axes first and then y,
each axis longer than one, as the x-first run does: an FFT over several axes
is a sequence of 1-D transforms along lines, and each line goes through the
same 1-D transform wherever its entries lie in memory, so the run is the
x-first run bit for bit.  Only that order gives those bits: transforming y
first rounds differently.  That a line's 1-D transform does not depend on
its stride is a property of the pocketfft build, not a law, and
test_y_first_transform_is_the_x_first_one in tests/test_integrator.py
guards it.  So is the start column of a datum of coefficients only, which
test_column_inverse_is_the_full_grid_one guards next to it.

The kick runs on as many threads as the FFT: fft_workers(), all cores unless
NLSLAB_THREADS sets it.  A state of at least KICK_SPLIT_MIN entries is cut,
as one flat run of entries, into that many equal contiguous blocks; the
calling thread allocates the scratch for the whole state, runs the first
block and hands the others to a pool of count - 1 threads, created at the
first split kick for that count and kept for the process.  A flat cut
splits any state alike, whatever its axis lengths: a (1, 256, 256) column
too.  Smaller states (a y column of the decay grid) take the calling thread
alone, with no lookup of the thread count, and so does one thread, with no
pool.  Every entry passes through the same ufunc calls either way, so the
split kick is the one-thread kick bit for bit as long as numpy's elementwise
loops give an entry the same bits wherever its block starts, in a SIMD body
or a tail.
That is a property of the numpy build, not a law; TestThreadedKick in
tests/test_integrator.py guards it on the scattering grid, a d = 2 grid and
block edges at odd entries.
"""

from __future__ import annotations

import contextvars
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, Sequence

import numpy as np
from scipy import fft as sfft

from .field import (Grid, SpectralField, _linear_phase, _y_column,
                    edge_cube_fraction, fft_workers, lebesgue_norm, y_independent)


class BlowUpError(RuntimeError):
    """Raised when the state leaves the representable range (focusing collapse)."""


@dataclass(frozen=True)
class PhysicsParams:
    """Nonlinearity power and sign: lambda = +1 defocusing, -1 focusing."""

    alpha: float
    lam: int = 1

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.lam not in (1, -1):
            raise ValueError(f"lam must be +1 or -1, got {self.lam}")


@dataclass(frozen=True)
class StepControl:
    dt: float
    t_end: float
    sample_every: int = 1

    def __post_init__(self):
        if self.dt == 0:
            raise ValueError("dt must be nonzero")
        if self.t_end * self.dt <= 0:
            raise ValueError(
                f"t_end = {self.t_end} must have the same sign as dt = {self.dt} "
                "(negative dt steps backward)"
            )
        if self.sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {self.sample_every}")

    @property
    def n_steps(self) -> int:
        n = int(round(self.t_end / self.dt))
        if abs(n * self.dt - self.t_end) > 1e-9 * max(1.0, abs(self.t_end)):
            raise ValueError(
                f"t_end = {self.t_end} is not an integer multiple of dt = {self.dt}"
            )
        return n


def _check_resolvability(grid: Grid, dt: float) -> None:
    top = grid.d * np.max(grid.xi_axis() ** 2) + np.max(grid.n_axis() ** 2)
    phase = abs(dt) * float(top)
    if phase >= 2.0 * np.pi:
        warnings.warn(
            f"dt * max(|xi|^2 + n^2) = {phase:.3g} exceeds 2 pi; the top modes "
            "rotate more than a full cycle per step (substep is still exact)",
            RuntimeWarning,
        )


# the smallest state, in entries, whose kick is split over threads.  Two
# threads against one on a 2-vCPU box (alpha = 5): 0.55x the time at 2^16
# entries, 0.7-0.9x at 2^15 and 1.1-2.4x at 2^12-2^14, where handing a block
# to a worker (about 50-80 us) costs more than it saves.
KICK_SPLIT_MIN = 1 << 16

# the kick's thread pools by thread count, each of count - 1 workers; a
# forked child has none of their threads, so it starts without pools
_kick_pools: Dict[int, ThreadPoolExecutor] = {}
_kick_pools_lock = threading.Lock()
os.register_at_fork(after_in_child=_kick_pools.clear)


def _kick_block(v: np.ndarray, rot: np.ndarray, theta: np.ndarray,
                power: float, angle: float) -> None:
    """The kick on v in place, with rot and theta scratch of v's shape."""
    np.square(v.real, out=theta)
    theta += np.square(v.imag, out=rot.real)
    np.power(theta, power, out=theta)
    theta *= angle
    np.cos(theta, out=rot.real)
    np.sin(theta, out=rot.imag)
    v *= rot


def _split_kick(v: np.ndarray, power: float, angle: float, threads: int) -> None:
    """_kick_block on `threads` equal blocks of v's entries at once.

    v must be C-contiguous (its flat view is cut; a copy would lose the
    kick, so reshape raises instead).  The calling thread allocates the
    scratch for all of v and runs the first block itself; the pool's workers
    run the others and allocate nothing.  Each worker runs in a copy of the
    caller's context, so a np.errstate the caller set holds in it too.
    """
    flat = v.reshape(-1, copy=False)
    rot = np.empty_like(flat)
    theta = np.empty(flat.shape, flat.real.dtype)
    edges = [flat.size * i // threads for i in range(threads + 1)]
    blocks = [(flat[a:b], rot[a:b], theta[a:b], power, angle)
              for a, b in zip(edges, edges[1:])]
    with _kick_pools_lock:
        if threads not in _kick_pools:
            _kick_pools[threads] = ThreadPoolExecutor(
                threads - 1, thread_name_prefix="nlslab-kick")
        pool = _kick_pools[threads]
    futures = [pool.submit(contextvars.copy_context().run, _kick_block, *block)
               for block in blocks[1:]]
    _kick_block(*blocks[0])
    for future in futures:
        future.result()


def _nonlinear_kick(v: np.ndarray, physics: PhysicsParams, h: float
                    ) -> np.ndarray:
    """The exact kick u <- u exp(i lam h |u|^alpha), in place on v; returns v.

    A state of at least KICK_SPLIT_MIN entries is cut into equal blocks of
    entries on the FFT's thread count, bitwise the same kick (module
    docstring).  A test that runs the linear flow alone replaces this
    function with the identity: _advance looks it up on every call.
    """
    power, angle = physics.alpha / 2.0, physics.lam * h
    if v.size >= KICK_SPLIT_MIN:
        threads = fft_workers()
        if threads > 1:
            _split_kick(v, power, angle, threads)
            return v
    _kick_block(v, np.empty_like(v), np.empty(v.shape, v.real.dtype), power, angle)
    return v


def _advance(v: np.ndarray, phase: np.ndarray, physics: PhysicsParams,
             dt: float, n: int, t: float) -> np.ndarray:
    """n Strang steps from the y-first state v at time t, overwriting v.

    v and phase have shape (Ny, Nx...), or (1, Nx...) for a y column.  The
    interior half kicks are fused into full ones.  A non-finite sample
    reaches every entry through the FFT pair, so one entry checked after
    each linear flow reports a blow-up at its step; the state after the
    closing kick is checked in full.  The FFT pair runs over the x axes and
    then y, each axis longer than one, the order of the x-first run's
    transforms (module docstring): a y column's length-1 y transform would
    be the identity.  The module-level kick is looked up on every call, and
    the state returned is the array the last kick returned, so a replaced
    kick need not work in place.  The kick splits a large state into blocks
    on the FFT's thread count itself, bitwise the one-thread kick.
    """
    workers = fft_workers()
    axes = [a for a in (*range(1, v.ndim), 0) if v.shape[a] > 1]
    h = dt / 2.0
    for k in range(1, n + 1):
        v = _nonlinear_kick(v, physics, h)
        v = sfft.fftn(v, axes=axes, workers=workers, overwrite_x=True)
        v *= phase
        v = sfft.ifftn(v, axes=axes, workers=workers, overwrite_x=True)
        if not np.isfinite(v.flat[0]):
            raise BlowUpError(f"non-finite state at t = {t + k * dt:.6g}")
        h = dt
    v = _nonlinear_kick(v, physics, dt / 2.0)
    if not np.all(np.isfinite(v)):
        raise BlowUpError(f"non-finite state at t = {t + n * dt:.6g}")
    return v


Sink = Callable[[SpectralField, bool], None]


def evolve(initial: SpectralField, physics: PhysicsParams, control: StepControl,
           sinks: Sequence[Sink] = (), guard_tol: float | None = None) -> SpectralField:
    """Run Strang steps to t_end, feeding immutable snapshots to the sinks.

    At every sampling time each sink is called as sink(snapshot, guard_breached).
    Each snapshot is built from an x-first copy of the y-first state by one
    forward transform (SpectralField.from_samples), except that a y-dependent
    datum is itself the step-0 snapshot; the last one emitted is returned.
    A y-independent datum (field.y_independent, judged from what it holds)
    is stepped on one y column, read from what it holds: the column it was
    built from, its cached samples' n = 0 column, or the x-only inverse of
    its n = 0 coefficients (field._y_column).  Only that column is checked
    for finiteness, only the n = 0 row of the linear phase is built, and
    each snapshot, step 0 included, is built from the column (module
    docstring).
    If guard_tol is given, the boundary-mass guard trips once the mass fraction
    of a unit cube in the band |x| > (3/4) L/2 exceeds it (edge_cube_fraction);
    the flag then stays set for all subsequent records.
    """
    g = initial.grid
    dt = control.dt
    _check_resolvability(g, dt)
    n_steps = control.n_steps
    t0 = initial.time_tag
    guard_breached = False

    def emit(snap: SpectralField) -> SpectralField:
        nonlocal guard_breached
        if guard_tol is not None and not guard_breached:
            if edge_cube_fraction(snap) > guard_tol:
                guard_breached = True
        for sink in sinks:
            sink(snap, guard_breached)
        return snap

    # a y-independent datum starts from one y column, read from what it
    # holds (field._y_column), with no full-grid array: the bits of the
    # full grid's samples, but for the sign of a zero sample
    reduced = y_independent(initial)
    u0 = _y_column(initial) if reduced else initial.samples()
    if not np.all(np.isfinite(u0)):
        raise BlowUpError(f"non-finite state at t = {t0:.6g}")
    # allocated before the first sink call, so that the sinks' temporaries
    # come after them in the heap: the peak RSS of a 256^2 x 16 benchmark run
    # (2-vCPU VM) was 288 MiB this way and 300 MiB with the order reversed.
    # The phase, or its n = 0 row for a column, is written y-first through
    # an x-first view, with no transposed temporary: each entry is the same
    # product of the same factors as in the x-first phase (TestYFirstRuns
    # and TestYIndependentRuns compare the bits)
    phase = np.empty((u0.shape[-1],) + g.shape[:-1], dtype=np.complex128)
    _linear_phase(g, dt, out=np.moveaxis(phase, 0, -1))
    v = np.moveaxis(u0, -1, 0).copy()  # C order: the y-first state, evolve's own

    def snapshot(t: float) -> SpectralField:
        # from a copy: _advance overwrites the state
        return SpectralField.from_samples(g, np.moveaxis(v, 0, -1).copy(), t)

    last = emit(snapshot(t0) if reduced else initial)
    for start in range(0, n_steps, control.sample_every):
        n = min(control.sample_every, n_steps - start)
        last = None  # no snapshot outlives a chunk unless a sink keeps it
        v = _advance(v, phase, physics, dt, n, t0 + start * dt)
        last = emit(snapshot(t0 + (start + n) * dt))
    return last


# ---------------------------------------------------------------------------
# conserved quantities
# ---------------------------------------------------------------------------

def mass(fld: SpectralField) -> float:
    """||u||^2_{L^2} via the coefficient l^2 sum (exactly what the scheme conserves)."""
    g = fld.grid
    return float(g.measure * np.sum(np.abs(fld.coefficients) ** 2))


def energy(fld: SpectralField, physics: PhysicsParams) -> float:
    """E = 1/2 ||grad u||^2 + lambda/(alpha+2) ||u||^{alpha+2}_{L^{alpha+2}}."""
    g = fld.grid
    kinetic = 0.5 * g.measure * float(
        np.sum(g.laplace_symbol() * np.abs(fld.coefficients) ** 2))
    p = physics.alpha + 2.0
    potential = physics.lam / p * lebesgue_norm(fld, p) ** p
    return kinetic + potential


# ---------------------------------------------------------------------------
# closed-form control solution
# ---------------------------------------------------------------------------

def soliton_profile(grid: Grid, B: float) -> SpectralField:
    """Standing-wave datum sqrt(2) B sech(Bx) for d=1, alpha=2, lam=-1.

    Its exact evolution is u(t,x) = sqrt(2) B sech(Bx) exp(-i B^2 t): every
    spatial norm is constant in time, the negative control for decay runs.
    """
    if grid.d != 1:
        raise ValueError("soliton profile is defined for d = 1 only")
    if not B > 0:
        raise ValueError(f"B must be positive, got {B}")
    if B * grid.L < 55.0:
        warnings.warn(
            f"B*L = {B * grid.L:.3g} leaves sech tails above 1e-12 at the box edge",
            RuntimeWarning,
        )
    # the y column: the field keeps it (SpectralField.from_samples)
    return SpectralField.from_samples(
        grid, np.sqrt(2.0) * B / np.cosh(B * grid.x_axis())[:, None], 0.0)
