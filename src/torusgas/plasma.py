"""Exact partition function and free energy of the augmented periodic plasma.

At coupling Gamma = 2 the quasi-periodic one-component plasma, multiplied by
the center-of-mass weight, integrates in closed form. The chain of closed
forms is evaluated three ways:

* ``middle`` - the prefactor form (pi theta1'(0;q)/L)^N
  e^{-(N^2/3) log(theta1'(0;q)/2)} (L N (2 rho)^{-1/2})^N f_N(q)^{-2} at
  q = exp(-pi W/L);
* the product form pi^N (rho/2)^{-N/2} q^{1/6} prod(1-q^{2k})^2 evaluated
  under both candidate nomes exp(-pi W/L) and exp(-pi L/W).

The middle form matches the product form exactly (all N, all aspect ratios)
at q = exp(-pi W/L) with the (rho/2)^{-N/2} normalization, which fixes both
the nome convention and the overall constant of the product form; the gate's
``partition-chain`` criterion holds both candidates to it. The defining
2N-dimensional integral is checked by a midpoint lattice rule (N = 1 and 2,
exponentially convergent on the periodic integrand) and by seeded Monte Carlo
(N = 2, 3). Both assemble the integrand in ``_integrand``: at Gamma = 2 it
is e^(-beta U) with U a sum of -log|theta1| terms, so the factors' log|theta1|
join the Gaussian's exponent and each point takes one real exponential. Each
factor's argument is built as its real and imaginary parts and handed to
log|theta1| as such (``_log_abs_factor``), with the bits of the complex build
and no complex array. The Monte Carlo takes log|theta1| at every sample; the
lattice rule tabulates it once per grid at the centre-of-mass sums and pair
differences of grid indices, which the grid points share. The Monte Carlo
splits each batch of draws into even row blocks of at most ``_MC_ROWS`` =
25,000, as many for each CPU the process may run on (a batch of 1e5 rows is
4 blocks on 1 or 2 CPUs), and runs them on threads (numpy releases the GIL
inside the integrand's ufunc loops). Each block draws its own rows from the
seeded stream into its slice of the batch's coordinates and fills its slice
of the values; the sums run over the whole batch, so the estimate does not
depend on the thread count.
"""

from __future__ import annotations

import contextvars
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, PrecisionUnreachable, QuadratureNonConvergence
from .errors import _check_count, _check_real
from .electrostatics import _log_prefactor
from .geometry import TorusGeometry
from .theta import Nome, _log_abs_theta1_parts, _q2_product, eta_q, f_N


@dataclass(frozen=True)
class ZnChain:
    """Closed-form partition function evaluated along the identity chain."""

    N: int
    middle_form: float
    final_form_WL: float
    final_form_LW: float
    log_middle: float

    @property
    def rel_mismatch_WL(self) -> float:
        return abs(self.middle_form - self.final_form_WL) / self.middle_form

    @property
    def rel_mismatch_LW(self) -> float:
        return abs(self.middle_form - self.final_form_LW) / self.middle_form


@dataclass(frozen=True)
class FreeEnergyBreakdown:
    """beta*F split into extensive and O(1) pieces; the torus has no surface term."""

    bulk: float
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


def _cell(geom: TorusGeometry, N: int) -> TorusGeometry:
    """geom with N particles, refusing an area L W or density N/(L W) outside (0, inf)."""
    geom = TorusGeometry(geom.L, geom.W, N)
    _check_real(geom.area, "the area L*W", 0)
    _check_real(geom.rho, "the density N/(L*W)", 0)
    return geom


def _log_product_form(N: int, rho: float, nome: Nome) -> float:
    """log of pi^N (rho/2)^{-N/2} q^{1/6} prod(1-q^{2k})^2, log q^{1/6} = -pi Im(tau)/6."""
    return (
        N * math.log(math.pi)
        - (N / 2.0) * math.log(rho / 2.0)
        - math.pi * nome.tau.imag / 6.0
        + 2.0 * math.log(_q2_product(nome).real)
    )


def zn_closed(N: int, geom: TorusGeometry) -> ZnChain:
    """Evaluate the partition-function chain under both candidate nomes.

    The printed product form carries (2 rho)^{-N/2}; the chain actually closes
    with (rho/2)^{-N/2} (a factor 2^N from theta1'(0) = 2 q^{1/4} (q^2;q^2)^3),
    and with the nome q = exp(-pi W/L), the same one the prefactor form uses.
    The product form is reported at both nomes, with that constant. A middle
    form outside [smallest normal, inf) or a product form that overflows
    raises PrecisionUnreachable.
    """
    geom = _cell(geom, N)
    rho = geom.rho
    lm = (_log_prefactor(N, geom) + (N * math.log(geom.L * N) - (N / 2.0) * math.log(2.0 * rho))
          - 2.0 * math.log(f_N(N, geom.nome_WL)))
    logs = lm, _log_product_form(N, rho, geom.nome_WL), _log_product_form(N, rho, geom.nome_LW)
    try:
        middle, wl, lw = (math.exp(x) for x in logs)
    except OverflowError:   # the product logs are finite: only exp overflows them
        middle = math.inf
    if not np.finfo(float).tiny <= middle < math.inf:
        raise PrecisionUnreachable(
            f"the N = {N} chain at L = {geom.L}, W = {geom.W} leaves double range")
    return ZnChain(N, middle, wl, lw, lm)


def free_energy(N: int, geom: TorusGeometry) -> FreeEnergyBreakdown:
    """beta*F = -log Z_N, split as bulk + finite-size term.

    bulk is (N/2) log(rho/(2 pi^2)) per the disk-geometry value; the torus has
    no surface term; the O(1) term is
    -2 log( q^{1/12} prod(1-q^{2k}) ) at q = exp(-pi W/L). Note the sign: Z_N
    is proportional to eta^2, so -log Z_N subtracts the eta term.
    """
    geom = _cell(geom, N)
    bulk = (N / 2.0) * math.log(geom.rho / (2.0 * math.pi**2))
    casimir = -2.0 * math.log(eta_q(geom.nome_WL))
    return FreeEnergyBreakdown(bulk=bulk, casimir=casimir, total=bulk + casimir)


def partition_integral_closed(N: int, geom: TorusGeometry) -> float:
    """Closed form of the defining 2N-dim integral:

        N! (L N (2 rho)^{-1/2})^N f_N(q)^{-2},   q = exp(-pi W/L).

    A value that is not finite or lies below the smallest normal double
    raises PrecisionUnreachable, as does f_N where it overflows.
    """
    rho = _cell(geom, N).rho
    try:
        value = (
            math.factorial(N)
            * (geom.L * N / math.sqrt(2.0 * rho)) ** N
            * f_N(N, geom.nome_WL) ** -2
        )
    except OverflowError:   # N! or the power past double range
        value = math.inf
    if not np.finfo(float).tiny <= value < math.inf:
        raise PrecisionUnreachable(
            f"the N = {N} closed form at W/L = {geom.W / geom.L} is out of double range ({value})")
    return value


def _integrand(gaussian, logs) -> np.ndarray:
    """e^(2 exponent), the exponent the Gaussian plus every log|theta1| in
    ``logs``, one array per factor, added in place in their order: each point
    takes one real exponential. log|theta1| is finite, -inf at a zero or nan
    at a nan coordinate, so a value that overflows comes from finite
    coordinates and raises PrecisionUnreachable, while a nan coordinate gives
    nan.
    """
    logs = iter(logs)
    exponent = gaussian + next(logs)
    for log in logs:
        exponent += log
    exponent *= 2.0
    with np.errstate(over="ignore"):
        vals = np.exp(exponent, out=exponent if np.ndim(exponent) else None)
    if np.isinf(vals).any():
        raise PrecisionUnreachable("the integrand of finite coordinates leaves double range")
    return vals


def _column_sum(terms: np.ndarray) -> np.ndarray:
    """terms summed over the last axis column by column, in order: on the
    Monte Carlo's (rows, 2 or 3) blocks that is ``np.sum(terms, axis=-1)``
    bit for bit, without numpy's reduction over a short last axis; past
    seven columns numpy may add real terms in another order. A call of its
    own, so ``terms`` is freed before the theta factors run."""
    return sum((terms[..., j] for j in range(1, terms.shape[-1])), terms[..., 0])


def _log_abs_factor(parts: np.ndarray, L: float, nome: Nome):
    """log|theta1(pi (a + ib) / L)| from parts = (a, b) stacked on a first
    axis, which it scales in place: each part is taken as (pi s) (1/L), the
    rounding of numpy's complex product and quotient by the real pi and L at
    finite parts."""
    parts *= math.pi
    parts *= 1.0 / L
    return _log_abs_theta1_parts(parts, nome)


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
    about 20 ns an element would cost as much as the theta factors. No
    complex z is formed: the centre of mass is (pi sum (x_j - L/2), pi sum
    (W/2 - y_j)) / L with the sums over columns (``_column_sum``), a pair is
    (pi (x_k - x_j), pi (y_k - y_j)) / L, each the parts of the complex build
    above bit for bit at in-cell coordinates (``_log_abs_factor``), and each
    factor's log|theta1| is added into the Gaussian's exponent by
    ``_integrand``, centre of mass first. ``nome`` is ``geom.nome_WL``, read
    by the caller where given; with it, the call reads no ``TorusGeometry``
    property.
    """
    L, W = geom.L, geom.W
    if not (0.0 <= x.min() and x.max() < L and 0.0 <= y.min() and y.max() < W):
        with np.errstate(invalid="ignore"):   # an inf coordinate wraps to nan
            x, y = np.mod(x, L), np.mod(y, W)
    N = x.shape[-1]
    nome = geom.nome_WL if nome is None else nome
    gaussian = -math.pi * (N / (L * W)) * _column_sum((y - W / 2.0) ** 2)
    factors = itertools.chain(
        [np.stack([_column_sum(x - L / 2.0), _column_sum(W / 2.0 - y)])],
        (np.stack([x[..., k] - x[..., j], y[..., k] - y[..., j]])
         for j, k in itertools.combinations(range(N), 2)))
    return _integrand(gaussian, (_log_abs_factor(parts, L, nome) for parts in factors))


# Points per N = 2 lattice-rule integrand call: small enough that theta's
# temporaries are reused rather than page-faulted in afresh on every call.
_LATTICE_BLOCK = 8192
# Most rows in one Monte Carlo block. Its blocks run on threads, and each
# ufunc call hands the GIL over once, so fewer and larger blocks overlap
# better, until a block's temporaries outgrow what the allocator keeps between
# calls and each call pages its arrays in afresh. The six plasma-mc
# configurations (1e5 samples each, 14 interleaved rounds in one process,
# 2-CPU Xeon) took a median 125.4 ms in 8 blocks of 12,500 rows (cap 16,384),
# 113.9 ms in 6 (cap 20,000) and 108.4 ms in 4 of 25,000 (cap 25,000 or
# 34,000); 2 blocks of 50,000 took 1.1-1.5x the time of 4, with 2.6x the page
# faults.
_MC_ROWS = 25_000


def _row_blocks(rows: int, workers: int) -> list[slice]:
    """rows >= 1 split into consecutive blocks whose sizes differ by at most
    one row, none empty and none over _MC_ROWS. Their count is the least
    multiple of workers that keeps every block under the cap, so every worker
    takes as many blocks; with fewer rows than that, each row is a block."""
    count = min(rows, workers * -(-rows // (workers * _MC_ROWS)))
    size, extra = divmod(rows, count)
    bounds = [i * size + min(i, extra) for i in range(count + 1)]
    return [slice(start, stop) for start, stop in zip(bounds, bounds[1:])]


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


def _lattice_sum(geom: TorusGeometry, nx: int, ny: int) -> float:
    """The integrand summed over the midpoint grid of nx points per x and ny
    per y coordinate, N = 1 or 2, grid axes (i_1..i_N, k_1..k_N).

    log|theta1| is tabulated once at the centre-of-mass argument's index sums
    (sum i, sum k) and, at N = 2, at the pair argument's index differences
    (i_2 - i_1, k_2 - k_1); at N = 1 the sum table is the grid. At N = 2 each
    point takes its entries by flat table index, in blocks of whole rows of
    the largest trailing (i_2, k_1, k_2), (k_1, k_2) or (k_2) pattern within
    _LATTICE_BLOCK points, a block of (k_2) rows within one (i_1, i_2). The
    blocks run on the calling thread: on a thread pool they made
    ``partition-integrals`` slower (median 2.3 ms to 2.4-2.5 ms, 2-CPU Xeon).
    """
    N, L, W, nome = geom.N, geom.L, geom.W, geom.nome_WL
    ix, iy = np.arange(nx), np.arange(ny)
    sums = np.arange(N * (nx - 1) + 1), np.arange(N * (ny - 1) + 1)
    sx, sy = (sums[0] + N / 2.0) * (L / nx), (sums[1] + N / 2.0) * (W / ny)   # sum x_j, sum y_j
    com = np.empty((2, sx.size, sy.size))   # the parts on the (sum x, sum y) grid
    com[0], com[1] = (sx - N * L / 2.0)[:, None], N * W / 2.0 - sy
    com = _log_abs_factor(com, L, nome)
    y = (iy + 0.5) * (W / ny) - W / 2.0
    gauss = -math.pi * (N / geom.area) * (y * y)
    if N == 1:
        return float(np.sum(_integrand(gauss, [com])))
    dx, dy = np.arange(1 - nx, nx), np.arange(1 - ny, ny)
    pair = np.empty((2, dx.size, dy.size))
    pair[0], pair[1] = dx[:, None] * (L / nx), dy * (W / ny)
    pair = _log_abs_factor(pair, L, nome)
    # flat table indices over one i_1 row (i_2, k_1, k_2); row i_1 adds i_1 table rows
    com_row = (ix * com.shape[1])[:, None, None] + (iy[:, None] + iy)
    pair_row = ((ix + nx - 1) * pair.shape[1])[:, None, None] + (iy - iy[:, None] + ny - 1)
    gauss_y = gauss[:, None] + gauss
    pattern = next((p for p in (nx * ny * ny, ny * ny) if p <= _LATTICE_BLOCK), ny)
    rows = max(1, _LATTICE_BLOCK // pattern) * pattern // ny   # (i_1, i_2, k_1) rows a block
    a_rows, k_rows = max(1, rows // ny), min(rows, ny)
    total = 0.0
    for a, k in itertools.product(range(0, nx * nx, a_rows), range(0, ny, k_rows)):
        block, j = range(a, min(a + a_rows, nx * nx)), slice(k, k + k_rows)
        com_at = np.empty((len(block), len(range(ny)[j]), ny), dtype=com_row.dtype)
        pair_at = np.empty_like(com_at)
        for i1 in range(block[0] // nx, block[-1] // nx + 1):   # the block's part of row i_1
            lo, hi = max(block.start, i1 * nx), min(block.stop, (i1 + 1) * nx)   # (i_1, i_2) pairs
            i2, out = slice(lo - i1 * nx, hi - i1 * nx), slice(lo - a, hi - a)
            np.add(com_row[i2, j], i1 * com.shape[1], out=com_at[out])
            np.subtract(pair_row[i2, j], i1 * pair.shape[1], out=pair_at[out])
        total += float(np.sum(_integrand(gauss_y[j], (com.take(com_at), pair.take(pair_at)))))
    return total


def verify_partition_lattice(geom: TorusGeometry) -> PartitionCheck:
    """Midpoint lattice rule for the defining integral against its closed form;
    on the smooth periodic integrand it converges geometrically (Trefethen &
    Weideman, SIAM Review 56, 2014). The grid has ceil(n sqrt(L/W)) points per
    x and ceil(n sqrt(W/L)) per y coordinate, each at least n; n doubles from 2
    until two grids agree to QUAD_MAX_REL, their difference is the error
    measure and ``grid`` the final (n_x, n_y). A grid over _LATTICE_MAX_POINTS
    points raises QuadratureNonConvergence, and so does N >= 3, before any
    grid: the rule closes for N = 1 and 2 only. A cell whose area L W or
    density leaves (0, inf) raises ParameterOutOfRange first."""
    _cell(geom, geom.N)
    N = geom.N
    if N > 2:
        raise QuadratureNonConvergence(f"the lattice rule closes for N = 1 and 2 only, got N = {N}")
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
    a given seed: the coordinates are ``default_rng(seed)``'s uniform draws
    in batches of 100,000 rows, x then y, (b, N) each. A batch is split into
    ``_row_blocks`` for the CPUs the process may run on, and the blocks run
    on threads (``_run_blocks``). Each block draws its own rows: it seeds
    ``PCG64(seed)``, the bit generator ``default_rng`` builds, advances it to
    the rows' place in the stream and fills its slice of the batch's x and y
    with ``Generator.random`` times L or W, which is ``uniform(0, L)`` bit for
    bit. Then it fills its rows of the batch's values. The sums run over the
    whole batch on the calling thread, so value and error do not depend on
    the thread count or the block sizes. A cell whose area L W or density
    leaves (0, inf) raises ParameterOutOfRange before any draw.
    """
    if geom.N not in (2, 3):
        raise DimensionMismatch("Monte Carlo check is for N in {2, 3}")
    _check_count(seed, "seed", 0)
    _check_count(samples, "samples", 100_000)
    _cell(geom, geom.N)

    N = geom.N
    L, W = geom.L, geom.W
    nome = geom.nome_WL   # read here: the blocks' threads read no geometry property
    rows = min(100_000, samples)
    # one x and y per call, filled by slices: blocks that drew into arrays of
    # their own took 5-10x the page faults and ran slower than the parent
    x, y, buffer = np.empty((rows, N)), np.empty((rows, N)), np.empty(rows)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        b = min(100_000, samples - done)
        vals = buffer[:b]

        def fill(block: slice) -> None:
            # the batch's x rows start at stream row 2 done, its y rows at 2 done + b
            first = 2 * done + block.start
            for coords, scale, row in ((x, L, first), (y, W, first + b)):
                out = coords[block]
                np.random.Generator(np.random.PCG64(seed).advance(row * N)).random(out=out)
                out *= scale
            vals[block] = _integrand_batch(x[block], y[block], geom, nome)

        _run_blocks(fill, _row_blocks(b, _cpu_count()))
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
