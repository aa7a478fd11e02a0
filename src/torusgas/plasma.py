"""Exact partition function and free energy of the augmented periodic plasma.

At coupling Gamma = 2 the quasi-periodic one-component plasma, multiplied by
the center-of-mass weight, integrates in closed form. The chain of closed
forms is evaluated three ways:

* ``middle`` - the prefactor form (pi theta1'(0;q)/L)^N
  e^{-(N^2/3) log(theta1'(0;q)/2)} (L N (2 rho)^{-1/2})^N f_N(q)^{-2} at
  q = exp(-pi W/L);
* the product form pi^N (rho/2)^{-N/2} q^{1/6} prod(1-q^{2k})^2 evaluated
  under both candidate nomes exp(-pi W/L) and exp(-pi L/W).

``zn_closed`` reports which candidate reproduces the middle form; the match is
exact (all N, all aspect ratios) for q = exp(-pi W/L) with the (rho/2)^{-N/2}
normalization, which fixes both the nome convention and the overall constant
of the product form. The defining 2N-dimensional integral is checked by a
midpoint lattice rule (any N, exponentially convergent on the periodic
integrand) and by seeded Monte Carlo (N = 2, 3). Both assemble the integrand
in ``_integrand``: squared theta series multiplied, their scales added to the
Gaussian's exponent, one real exponential per point. The Monte Carlo takes
|theta1|^2 at every sample; the lattice rule tabulates it once per grid at the
(2 n_x - 1)(2 n_y - 1) pair differences and (N(n_x - 1) + 1)(N(n_y - 1) + 1)
centre-of-mass sums of grid indices, which every grid point shares. The Monte
Carlo's row blocks run on threads, one per CPU the process may run on (numpy
releases the GIL inside the integrand's ufunc loops); each block fills its own
slice of the draw's values and the sums run over the whole draw, so the
estimate does not depend on the thread count. The lattice rule sums its blocks
on the calling thread (see ``_lattice_sum``).
"""

from __future__ import annotations

import contextvars
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, PrecisionUnreachable, QuadratureNonConvergence, _check_count
from .electrostatics import _log_prefactor
from .geometry import TorusGeometry
from .theta import _TINY, Nome, _q2_product, _theta1_abs2, eta_q, f_N


@dataclass(frozen=True)
class ZnChain:
    """Closed-form partition function evaluated along the identity chain."""

    N: int
    middle_form: float
    final_form: float
    final_form_WL: float
    final_form_LW: float
    printed_final_WL: float
    printed_final_LW: float
    resolved_nome: str
    log_middle: float
    log_final: float

    @property
    def rel_mismatch_WL(self) -> float:
        return abs(self.middle_form - self.final_form_WL) / self.middle_form

    @property
    def rel_mismatch_LW(self) -> float:
        return abs(self.middle_form - self.final_form_LW) / self.middle_form


@dataclass(frozen=True)
class FreeEnergyBreakdown:
    """beta*F split into extensive and O(1) pieces; surface term vanishes."""

    bulk: float
    surface: float
    casimir: float
    total: float


@dataclass(frozen=True)
class IntegralEstimate:
    """A numerical integral value with its error measure and provenance."""

    value: float
    std_error: float
    samples: int
    seed: int
    grid: tuple[int, int] | None = None   # a lattice rule's (n_x, n_y)


@dataclass(frozen=True)
class PartitionCheck:
    """Numerical estimate of the defining integral against its closed form."""

    estimate: IntegralEstimate
    closed_form: float
    rel_deviation: float

    @property
    def pull(self) -> float:
        """|estimate - closed form| in units of the estimate's error measure;
        with a zero measure, 0.0 on exact agreement and inf otherwise."""
        deviation = abs(self.estimate.value - self.closed_form)
        if self.estimate.std_error == 0.0:
            return 0.0 if deviation == 0.0 else math.inf
        return deviation / self.estimate.std_error

    @property
    def passed(self) -> bool:
        """A lattice estimate (``grid`` set) passes below QUAD_MAX_REL relative
        deviation, a Monte Carlo one below MC_MAX_PULL standard errors; a nan
        fails either."""
        if self.estimate.grid is not None:
            return self.rel_deviation < QUAD_MAX_REL
        return self.pull < MC_MAX_PULL


def _log_middle(N: int, geom: TorusGeometry) -> float:
    rho = N / geom.area
    val = _log_prefactor(N, geom)
    val += N * math.log(geom.L * N) - (N / 2.0) * math.log(2.0 * rho)
    val -= 2.0 * math.log(f_N(N, geom.nome_WL))
    return val


def _log_product_form(N: int, rho: float, nome: Nome) -> float:
    """log of pi^N (rho/2)^{-N/2} q^{1/6} prod(1-q^{2k})^2, log q^{1/6} = -pi Im(tau)/6."""
    return (
        N * math.log(math.pi)
        - (N / 2.0) * math.log(rho / 2.0)
        - math.pi * nome.tau.imag / 6.0
        + 2.0 * math.log(_q2_product(nome).real)
    )


def zn_closed(N: int, geom: TorusGeometry) -> ZnChain:
    """Evaluate the partition-function chain and resolve its nome convention.

    The printed product form carries (2 rho)^{-N/2}; the chain actually closes
    with (rho/2)^{-N/2} (a factor 2^N from theta1'(0) = 2 q^{1/4} (q^2;q^2)^3),
    and with the nome q = exp(-pi W/L), the same one the prefactor form uses.
    Both corrected candidates and both literal printed candidates are reported.
    """
    geom = TorusGeometry(geom.L, geom.W, N)   # refuses a count that is not an integer >= 1
    rho = geom.rho
    lm = _log_middle(N, geom)
    lf_wl = _log_product_form(N, rho, geom.nome_WL)
    lf_lw = _log_product_form(N, rho, geom.nome_LW)
    resolved = "W/L" if abs(lm - lf_wl) <= abs(lm - lf_lw) else "L/W"
    lf = lf_wl if resolved == "W/L" else lf_lw
    return ZnChain(
        N=N,
        middle_form=math.exp(lm),
        final_form=math.exp(lf),
        final_form_WL=math.exp(lf_wl),
        final_form_LW=math.exp(lf_lw),
        printed_final_WL=math.exp(lf_wl - N * math.log(2.0)),
        printed_final_LW=math.exp(lf_lw - N * math.log(2.0)),
        resolved_nome=resolved,
        log_middle=lm,
        log_final=lf,
    )


def free_energy(N: int, geom: TorusGeometry) -> FreeEnergyBreakdown:
    """beta*F = -log Z_N, split as bulk + surface + finite-size term.

    bulk is (N/2) log(rho/(2 pi^2)) per the disk-geometry value; the surface
    term vanishes identically on the torus; the O(1) term is
    -2 log( q^{1/12} prod(1-q^{2k}) ) at q = exp(-pi W/L). Note the sign: Z_N
    is proportional to eta^2, so -log Z_N subtracts the eta term.
    """
    geom = TorusGeometry(geom.L, geom.W, N)
    bulk = (N / 2.0) * math.log(geom.rho / (2.0 * math.pi**2))
    casimir = -2.0 * math.log(eta_q(geom.nome_WL))
    return FreeEnergyBreakdown(
        bulk=bulk, surface=0.0, casimir=casimir, total=bulk + casimir
    )


def partition_integral_closed(N: int, geom: TorusGeometry) -> float:
    """Closed form of the defining 2N-dim integral:

        N! (L N (2 rho)^{-1/2})^N f_N(q)^{-2},   q = exp(-pi W/L).
    """
    rho = TorusGeometry(geom.L, geom.W, N).rho
    return (
        math.factorial(N)
        * (geom.L * N / math.sqrt(2.0 * rho)) ** N
        * f_N(N, geom.nome_WL) ** -2
    )


def _integrand(gaussian, factors) -> np.ndarray:
    """e^(2 gaussian) times the |theta1|^2 of ``factors()``, an iterable of
    (|series|^2, scale) pairs as ``_theta1_abs2`` returns them, the
    centre-of-mass factor first: the mantissas multiply into the first one,
    which holds the result, and the scales join the Gaussian's exponent, so
    each row takes one real exponential. Rows where that running product
    leaves double range, or where the exponential falls below the smallest
    normal double, are summed again in log form from a second call of
    ``factors()``, which must give fresh arrays. A value still out of range
    where every centre-of-mass mantissa and exponent is finite (finite
    coordinates) raises PrecisionUnreachable.
    """
    parts = iter(factors())
    vals, exponent = next(parts)
    finite = np.isfinite(vals).all()   # with a finite exponent: finite coordinates
    exponent = gaussian + exponent
    with np.errstate(over="ignore", invalid="ignore"):
        for mantissa, scale in parts:
            vals *= mantissa
            exponent += scale
        weight = np.exp(2.0 * exponent)
        vals *= weight
    in_range = np.isfinite(vals).all() and np.min(weight) >= _TINY
    if in_range or not finite or not np.isfinite(exponent).all():
        return vals
    bad = ~np.isfinite(vals) | np.broadcast_to(weight < _TINY, vals.shape)
    logs = 2.0 * np.broadcast_to(exponent, vals.shape)[bad]
    with np.errstate(divide="ignore", over="ignore"):   # a zero factor: log 0 = -inf
        for mantissa, _ in factors():
            logs += np.log(np.broadcast_to(mantissa, vals.shape)[bad])
        vals[bad] = np.exp(logs)
    if not np.isfinite(vals).all():
        raise PrecisionUnreachable("the integrand of finite coordinates leaves double range")
    return vals


def _integrand_batch(
    x: np.ndarray, y: np.ndarray, geom: TorusGeometry, nome: Nome | None = None
) -> np.ndarray:
    """Vectorized integrand over the last axis of (..., N) coordinates, one
    configuration (N,) or a (batch, N) block:

        e^{-2 pi rho sum (y_j - W/2)^2}
        |theta1(pi sum (conj(z_j) - (L - iW)/2)/L; q)|^2
        prod_{j<k} |theta1(pi (z_k - z_j)/L; q)|^2

    Coordinates outside the cell are wrapped into it first (x mod L, y mod W),
    so the integrand is periodic to the rounding of the coordinates
    themselves; in-cell input, every Monte Carlo draw, skips np.mod, which at
    about 20 ns an element would cost as much as the theta factors. Each
    |theta1|^2 enters as |series|^2 and a real scale (``theta._split``),
    assembled by ``_integrand``. ``nome`` is ``geom.nome_WL``, read by the
    caller where given; with it, the call reads no ``TorusGeometry`` property.
    """
    L, W = geom.L, geom.W
    if not (0.0 <= x.min() and x.max() < L and 0.0 <= y.min() and y.max() < W):
        with np.errstate(invalid="ignore"):   # an inf coordinate wraps to nan
            x, y = np.mod(x, L), np.mod(y, W)
    N = x.shape[-1]
    nome = geom.nome_WL if nome is None else nome
    z = x + 1j * y

    def factors():
        yield _theta1_abs2(math.pi * np.sum(np.conj(z) - (L - 1j * W) / 2.0, axis=-1) / L, nome)
        for j, k in itertools.combinations(range(N), 2):
            yield _theta1_abs2(math.pi * (z[..., k] - z[..., j]) / L, nome)

    gaussian = -math.pi * (N / (L * W)) * np.sum((y - W / 2.0) ** 2, axis=-1)
    return _integrand(gaussian, factors)


# Rows per integrand call: small enough that theta's temporaries are reused
# rather than page-faulted in afresh on every call. The Monte Carlo runs its
# blocks on threads; every block fills its own rows, so the values do not
# depend on the thread count.
_MC_BLOCK = 8192


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_blocks(work, blocks: list) -> None:
    """work(block) for every block, over min(CPUs, len(blocks)) threads.

    The calling thread takes every workers-th block from the first, which
    keeps fewer blocks' temporaries alive at once than a pool of one thread
    per CPU; a pool of workers - 1 threads takes the rest, each block in a
    copy of the caller's contextvars context, where numpy keeps its error
    state. An exception reaches the caller once the started blocks have
    ended; the blocks not yet started are cancelled. With one CPU or one
    block no thread starts.
    """
    workers = min(_cpu_count(), len(blocks))
    if workers < 2:
        for block in blocks:
            work(block)
        return
    # Imported here: its logging import would add 6 ms to `import torusgas`.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers - 1) as pool:
        futures = [pool.submit(contextvars.copy_context().run, work, block)
                   for i, block in enumerate(blocks) if i % workers]
        try:
            for block in blocks[::workers]:
                work(block)
        except BaseException:
            for future in futures:
                future.cancel()
            raise
        for future in futures:
            future.result()


QUAD_MAX_REL = 1e-12   # lattice grids agree, and a lattice check passes, below this
MC_MAX_PULL = 3.0      # a Monte Carlo check passes within this many standard errors
_LATTICE_MAX_POINTS = 2**20


def _table(z: np.ndarray, nome) -> tuple[np.ndarray, np.ndarray]:
    """``_theta1_abs2`` at the arguments z, the scale as an array of z's shape."""
    mantissa, scale = _theta1_abs2(z, nome)
    return mantissa, scale + np.zeros(z.shape)


def _outer_sum(start, parts) -> np.ndarray:
    """start + parts[0][i_0] + parts[1][i_1] + ... over the product grid of
    the parts' indices, flattened in C order."""
    total = np.asarray(start)
    for part in parts:
        total = np.add.outer(total, part)
    return total.reshape(-1)


def _lattice_sum(geom: TorusGeometry, nx: int, ny: int) -> float:
    """The integrand summed over the midpoint grid of nx points per x and ny
    per y coordinate, grid axes (i_1..i_N, k_1..k_N).

    A pair argument depends on the grid point only through the index
    difference (i_k - i_j, k_k - k_j), the centre-of-mass argument only
    through the index sum (sum i, sum k) and the Gaussian through each k_j.
    So |theta1|^2 is tabulated at the (2 nx - 1)(2 ny - 1) differences and
    the (N(nx - 1) + 1)(N(ny - 1) + 1) sums, one ``_theta1_abs2`` call per
    table, and each grid point gathers its entries by flat table index. Such
    an index is a sum of one term per grid axis: an outer sum over the leading
    axes plus a pattern over the trailing axes, which hold at most _MC_BLOCK
    points (or one axis), so the grid is summed in blocks of whole patterns.
    The blocks run on the calling thread: they only gather from the built
    tables, and spread over a thread pool they made ``partition-integrals``
    slower (median 2.3 ms to 2.4-2.5 ms on a 2-CPU Xeon).
    """
    N, L, W, nome = geom.N, geom.L, geom.W, geom.nome_WL
    ix, iy = np.arange(nx), np.arange(ny)
    sums = np.arange(N * (nx - 1) + 1), np.arange(N * (ny - 1) + 1)
    sx, sy = (sums[0] + N / 2.0) * (L / nx), (sums[1] + N / 2.0) * (W / ny)   # sum x_j, sum y_j
    com = _table(math.pi * (np.conj(sx[:, None] + 1j * sy) - N * (L - 1j * W) / 2.0) / L, nome)
    y = (iy + 0.5) * (W / ny) - W / 2.0
    gauss = -math.pi * (N / geom.area) * (y * y)
    diffs = np.arange(1 - nx, nx), np.arange(1 - ny, ny)
    if N > 1:   # one pair table; at N = 1 it would be built and never read
        pair = _table(math.pi * (diffs[0][:, None] * (L / nx) + 1j * (diffs[1] * (W / ny))) / L, nome)
    # (table, the index's constant, its term per grid axis), centre of mass first
    indices = [(com, 0, [len(sums[1]) * ix] * N + [iy] * N)]
    for j in range(N):
        for k in range(j + 1, N):
            sign = [(a == k) - (a == j) for a in range(N)]
            indices.append((pair, (nx - 1) * len(diffs[1]) + ny - 1,
                            [s * len(diffs[1]) * ix for s in sign] + [s * iy for s in sign]))
    gauss_terms = [np.zeros(nx)] * N + [gauss] * N

    sizes = [nx] * N + [ny] * N
    split = len(sizes) - 1   # axes [split:] make the pattern
    while split > 0 and math.prod(sizes[split - 1:]) <= _MC_BLOCK:
        split -= 1
    lead = [(table, _outer_sum(start, terms[:split])[:, None], _outer_sum(0, terms[split:]))
            for table, start, terms in indices]
    gauss_lead = _outer_sum(0.0, gauss_terms[:split])[:, None]
    gauss_pattern = _outer_sum(0.0, gauss_terms[split:])
    rows = max(1, _MC_BLOCK // len(gauss_pattern))
    total = 0.0
    for block in (slice(start, start + rows) for start in range(0, len(gauss_lead), rows)):
        index = [(table, offsets[block] + pattern) for table, offsets, pattern in lead]
        vals = _integrand(gauss_lead[block] + gauss_pattern,
                          lambda: ((m.take(i), s.take(i)) for (m, s), i in index))
        total += float(np.sum(vals))
    return total


def verify_partition_lattice(geom: TorusGeometry) -> PartitionCheck:
    """Midpoint lattice rule for the defining integral against its closed form;
    on the smooth periodic integrand it converges geometrically (Trefethen &
    Weideman, SIAM Review 56, 2014). The grid has ceil(n sqrt(L/W)) points per
    x and ceil(n sqrt(W/L)) per y coordinate, each at least n; n doubles from 2
    until two grids agree to QUAD_MAX_REL, their difference is the error
    measure and ``grid`` the final (n_x, n_y). A grid over _LATTICE_MAX_POINTS
    points raises QuadratureNonConvergence. ``_lattice_sum`` sums each grid
    from |theta1|^2 tables at its distinct pair differences and
    centre-of-mass sums."""
    N = geom.N
    stretch = [max(1.0, math.sqrt(r)) for r in (geom.L / geom.W, geom.W / geom.L)]
    value, n = math.nan, 2
    while True:
        previous = value
        nx, ny = (math.ceil(n * s) for s in stretch)
        size = nx**N * ny**N
        if size > _LATTICE_MAX_POINTS:
            raise QuadratureNonConvergence(f"no grids agree to {QUAD_MAX_REL:.0e} by {size} points")
        value = _lattice_sum(geom, nx, ny) / size * geom.area**N
        if abs(value - previous) <= QUAD_MAX_REL * abs(value):
            break
        n *= 2
    closed = partition_integral_closed(N, geom)
    est = IntegralEstimate(value, abs(value - previous), size, 0, (nx, ny))
    return PartitionCheck(est, closed, abs(value - closed) / closed)


def verify_partition_mc(geom: TorusGeometry, samples: int, seed: int) -> PartitionCheck:
    """Uniform-sampling Monte Carlo for the N in {2, 3} integral.

    Plain uniform sampling is unbiased and the integrand is bounded on the
    torus, so the standard error scales as 1/sqrt(samples). Deterministic for
    a given seed: the coordinates are drawn in batches of 100,000 rows, and
    each batch is evaluated in row blocks of ``_MC_BLOCK``, which gives the
    same values as one call over the batch. The blocks run on threads, one per
    CPU the process may run on (``_run_blocks``), each filling its own rows of
    one array; the sums run over the whole batch on the calling thread, so
    value and error do not depend on the thread count.
    """
    if geom.N not in (2, 3):
        raise DimensionMismatch("Monte Carlo check is for N in {2, 3}")
    _check_count(seed, "seed", 0)
    _check_count(samples, "samples", 100_000)

    rng = np.random.default_rng(seed)
    N = geom.N
    nome = geom.nome_WL   # read here: the blocks' threads read no geometry property
    buffer = np.empty(min(100_000, samples))
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        b = min(100_000, samples - done)
        x = rng.uniform(0.0, geom.L, (b, N))
        y = rng.uniform(0.0, geom.W, (b, N))
        vals = buffer[:b]

        def fill(rows: slice) -> None:
            vals[rows] = _integrand_batch(x[rows], y[rows], geom, nome)

        _run_blocks(fill, [slice(i, i + _MC_BLOCK) for i in range(0, b, _MC_BLOCK)])
        total += float(np.sum(vals))
        total_sq += float(np.sum(np.square(vals, out=vals)))
        done += b
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    vol = geom.area**N
    value = vol * mean
    std_error = vol * math.sqrt(var / samples)
    closed = partition_integral_closed(N, geom)
    est = IntegralEstimate(value=value, std_error=std_error, samples=samples, seed=seed)
    return PartitionCheck(est, closed, abs(value - closed) / closed)
