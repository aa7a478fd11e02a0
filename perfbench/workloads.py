"""Seeded inputs, operations and per-operation checks of the three workloads.

Every workload is a closed loop driven by one caller: the next operation
starts when the previous one has returned. Inputs are generated here from the
benchmark seed; the library only ever receives the generated values. An
operation is a list of checks, each comparing a closed form with an
independent route and returning residual / tolerance. A check that exceeds
its tolerance raises :class:`CheckFailed`; the caller counts it, and any
exception the library raises, as a failed operation.

The work of a run is fixed by ``--seconds`` through nominal per-block costs
measured on a 2-core Xeon (KVM guest), so a parent and a change execute the
same operations on the same inputs and failure counts are reproducible for a
given seed.
"""

from __future__ import annotations

import functools
import hashlib
import math
import traceback
from collections import Counter
from dataclasses import dataclass

import numpy as np

from torusgas import (
    coulombgas,
    electrostatics,
    geometry,
    identities,
    landau,
    plasma,
    selftest,
    theta,
    universality,
)
from torusgas.errors import TorusGasError


class CheckFailed(Exception):
    """A closed form disagreed with its independent route beyond tolerance."""


def within(residual: float, tol: float, detail: str = "") -> float:
    """residual / tol, raising CheckFailed when it exceeds 1 or is NaN."""
    ratio = float(residual) / tol
    if not ratio <= 1.0:
        raise CheckFailed(f"residual/tolerance = {ratio!r} {detail}".strip())
    return ratio


class Accounting:
    """Outcome of every attempted operation; a failure is never a success."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.by_class = Counter()
        self.by_type = Counter()
        self.by_family = Counter()
        self.worst_margin = None   # no check of the workload reports a margin
        self.observed: dict[str, list[float]] = {}
        self.first_errors: dict[str, str] = {}

    def run(self, checks) -> None:
        """Run one operation's checks; the operation fails if any check does."""
        self.attempted += 1
        failure = None
        margins, observed = [], {}
        for family, check in checks:
            try:
                result = check()
            except CheckFailed as e:
                cls, typ, err = "check", "CheckFailed", e
            except TorusGasError as e:
                cls, typ, err = "TorusGasError", type(e).__name__, e
            except ValueError as e:
                cls, typ, err = "ValueError", type(e).__name__, e
            except OverflowError as e:
                cls, typ, err = "OverflowError", type(e).__name__, e
            except Exception as e:  # the operation boundary must keep running
                cls, typ, err = "other", type(e).__name__, e
            else:
                if "margin" in result:
                    margins.append(result.pop("margin"))
                observed.update(result)
                continue
            self.by_family[f"{family}:{cls}"] += 1
            key = f"{family}:{typ}"
            if key not in self.first_errors:
                self.first_errors[key] = "".join(traceback.format_exception(err, limit=-2))
            if failure is None:
                failure = (cls, typ)
        if failure is not None:
            self.failed += 1
            self.by_class[failure[0]] += 1
            self.by_type[failure[1]] += 1
            return
        if margins:
            self.worst_margin = max(margins + [self.worst_margin or 0.0])
        for k, v in observed.items():
            self.observed.setdefault(k, []).append(v)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _blocks(seconds: int, nominal_block_s: float, min_blocks: int) -> int:
    return max(min_blocks, round(seconds / nominal_block_s))


# --------------------------------------------------------------------------
# gate: the nine selftest criteria, in order, with their default arguments.
# One operation is one full gate pass, the unit of work of `torusgas selftest`;
# each criterion is one of its checks.


@dataclass(frozen=True)
class GateOp:
    criteria: tuple[tuple[str, str], ...]   # (criterion, check function name)


def _gate_checks(op: GateOp):
    def criterion(function: str):
        result = getattr(selftest, function)()
        if not result.passed:
            raise CheckFailed(result.detail)
        return {}

    return [(name, functools.partial(criterion, function)) for name, function in op.criteria]


class Gate:
    name = "gate"
    # One block is one gate pass: ~11-15 s with one BLAS thread. Four passes
    # give a median that one slow pass cannot move.
    nominal_block_s = 13.0
    min_blocks = 4

    def generate(self, seed: int, seconds: int):
        # The gate's inputs are the criteria's own fixed defaults; the seed
        # does not enter. The digest pins the criterion list.
        op = GateOp(tuple((name, fn.__name__) for name, fn in selftest.ALL_CHECKS))
        digest = hashlib.sha256(repr(op.criteria).encode()).hexdigest()
        blocks = [[op]] * _blocks(seconds, self.nominal_block_s, self.min_blocks)
        warmup = GateOp((("electrostatics", "check_electrostatics"),))
        return blocks, warmup, digest

    checks = staticmethod(_gate_checks)


# --------------------------------------------------------------------------
# geometry-scan: every closed-form family at one torus per operation.

# Both nomes q_WL = exp(-pi W/L) and q_LW = exp(-pi L/W) must stay <= 0.95,
# the cap ``theta.Nome`` accepts; this is the whole accepted aspect range.
_R_MIN = -math.log(0.95) / math.pi
_R_MAX = 1.0 / _R_MIN
_SCAN_BLOCK = 240           # a multiple of 6, so every block has each N equally
_N_THETA = 4
_N_LANDAU = 2
_ALPHA = 0.1 + 0.05j
_N_MAX = 8


@dataclass(frozen=True)
class ScanOp:
    N: int
    L: float
    W: float
    zeta: float
    u_theta: np.ndarray      # theta1 arguments inside the cell, off the zeros
    zs: np.ndarray           # N particle positions in the cell
    zp: complex              # source point of the potential
    ws_f: np.ndarray         # Frobenius point sets
    zs_f: np.ndarray
    landau: np.ndarray       # (2, N) configurations in the cell


def _lattice_gap(d: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Distance of d to the lattice pi*Z + i*pi*r*Z (r broadcast over d)."""
    n = np.rint(d.imag / (math.pi * r))
    d = d - 1j * math.pi * r * n
    m = np.rint(d.real / math.pi)
    return np.abs(d - math.pi * m)


def _frobenius_points(rng, r: np.ndarray, N: int):
    """Point sets as the gate draws them (Re in [0,1), Im in [-0.2,0.2]),
    redrawn until every difference is 1e-3 away from the theta1 zeros."""
    B = len(r)
    ws = np.empty((B, N), dtype=complex)
    zs = np.empty((B, N), dtype=complex)
    todo = np.arange(B)
    while len(todo):
        k = len(todo)
        w = rng.uniform(0, 1, (k, N)) + 1j * rng.uniform(-0.2, 0.2, (k, N))
        z = rng.uniform(0, 1, (k, N)) + 1j * rng.uniform(-0.2, 0.2, (k, N))
        rr = r[todo][:, None, None]
        gaps = [w[:, :, None] - z[:, None, :]]
        if N > 1:
            iu, ju = np.triu_indices(N, k=1)
            gaps += [(w[:, ju] - w[:, iu])[:, :, None], (z[:, ju] - z[:, iu])[:, :, None]]
        ok = np.all([np.all(_lattice_gap(g, rr) > 1e-3, axis=(1, 2)) for g in gaps], axis=0)
        ws[todo[ok]] = w[ok]
        zs[todo[ok]] = z[ok]
        todo = todo[~ok]
    return ws, zs


def _scan_block(rng) -> tuple[list[ScanOp], str]:
    B = _SCAN_BLOCK
    Ns = np.tile(np.arange(1, 7), B // 6)
    # stratified log-uniform aspect ratios, independent of the N pattern
    strata = (rng.permutation(B) + rng.uniform(0, 1, B)) / B
    r = np.exp(math.log(_R_MIN) + strata * (math.log(_R_MAX) - math.log(_R_MIN)))
    L = np.exp(rng.uniform(math.log(0.5), math.log(2.0), B))
    W = r * L
    zeta = rng.uniform(0.1, 1.0, B) / L

    def cell(shape, lo=0.0, hi=1.0):
        x = rng.uniform(lo, hi, (B,) + shape) * L.reshape((B,) + (1,) * len(shape))
        y = rng.uniform(lo, hi, (B,) + shape) * W.reshape((B,) + (1,) * len(shape))
        return x + 1j * y

    u_theta = math.pi * cell((_N_THETA,), 0.1, 0.9) / L[:, None]
    zs = cell((6,))
    zp = cell(())
    land = cell((_N_LANDAU, 6))
    ops = []
    wf = {}
    for N in range(1, 7):
        sel = Ns == N
        wf[N] = _frobenius_points(rng, r[sel], N)
    counters = {N: 0 for N in range(1, 7)}
    for i in range(B):
        N = int(Ns[i])
        k = counters[N]
        counters[N] += 1
        ops.append(
            ScanOp(
                N=N,
                L=float(L[i]),
                W=float(W[i]),
                zeta=float(zeta[i]),
                u_theta=u_theta[i],
                zs=zs[i, :N],
                zp=complex(zp[i]),
                ws_f=wf[N][0][k],
                zs_f=wf[N][1][k],
                landau=land[i, :, :N],
            )
        )
    digest = _digest(Ns, L, W, zeta, u_theta, zs, zp, land,
                     *[a for N in range(1, 7) for a in wf[N]])
    return ops, digest


def _rel(a, b) -> float:
    a = np.asarray(a)
    b = np.asarray(b)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))


def _check_zn(op: ScanOp, g):
    chain = plasma.zn_closed(op.N, g)
    return within(chain.rel_mismatch_WL, 1e-10)


def _check_theta(op: ScanOp, g):
    nome = g.nome_WL
    series = theta.theta1(op.u_theta, nome)
    product = theta.theta1_product(op.u_theta, nome)
    return within(_rel(series, product), 1e-10)


def _check_casimir(op: ScanOp, g):
    r = universality.casimir_report(g)
    gap = abs(r.discrepancies["ocp_vs_tcg_printed"] - r.modular_shift)
    fix = abs(r.discrepancies["ocp_vs_tcg_resolved_nome"])
    return within(max(gap, fix), 1e-10)


def _log_sinh(a: np.ndarray) -> np.ndarray:
    return a + np.log1p(-np.exp(-2.0 * a)) - math.log(2.0)


def _check_log_xi2(op: ScanOp, g):
    closed = coulombgas.log_xi2_closed(op.zeta, g, _N_MAX)
    # independent route: theta4(0) from the product, and each cosh factor as
    # (cosh X - 1) = 2 sinh^2(X/2)
    t4 = theta.theta4_product(0.0, g.nome_WL).real
    mu = math.pi * (2 * np.arange(1, _N_MAX + 1) - 1) / op.L
    X = op.W * np.hypot(mu, 2.0 * math.pi * op.zeta)
    Y = op.W * mu
    ref = 2.0 * math.log(t4) + 4.0 * float(np.sum(_log_sinh(X / 2) - _log_sinh(Y / 2)))
    return within(abs(closed - ref), 1e-9 * max(1.0, abs(ref)))


def _check_phi(op: ScanOp, g):
    z = complex(op.zs[0])
    phi0 = float(electrostatics.phi_periodic(z, op.zp, g))
    shifted = (
        float(electrostatics.phi_periodic(z + op.L, op.zp, g)),
        float(electrostatics.phi_periodic(z + 1j * op.W, op.zp, g)),
    )
    per = max(abs(s - phi0) for s in shifted)
    return within(per, 1e-10 * max(1.0, abs(phi0)))


def _check_ocp(op: ScanOp, g):
    cfg = geometry.ParticleConfig.from_raw(op.zs, g)
    lb = electrostatics.ocp_log_boltzmann(cfg, 2.0, g)
    u1, u2, u3 = electrostatics.coulomb_energy_terms(cfg, g)
    return within(abs(lb + 2.0 * (u1 + u2 + u3)), 1e-9 * max(1.0, abs(lb)))


def _check_nbody(op: ScanOp, g):
    cfg = geometry.ParticleConfig.from_raw(op.zs, g)
    w = electrostatics.nbody_weight(cfg, g)
    s = np.sum(np.conj(cfg.zs) - (op.L - 1j * op.W) / 2.0)
    ref = abs(complex(theta.theta1_product(math.pi * s / op.L, g.nome_WL))) ** 2
    return within(abs(w - ref) / max(abs(w), abs(ref), 1e-300), 1e-9)


def _check_identity(op: ScanOp, g):
    r = identities.frobenius_residual(op.ws_f, op.zs_f, _ALPHA, g.nome_WL)
    if r.near_zero:
        return within(r.abs_residual, 1e-12 * max(r.scale, 1.0), "near zero")
    return within(r.rel_residual, 1e-9)


def _check_landau(op: ScanOp, g):
    setup = landau.MagneticSetup.from_flux(
        L=op.L, N=op.N, l=math.sqrt(op.W * op.L / (2.0 * math.pi * op.N))
    )
    slater = np.array([landau.slater_state(c, setup) for c in op.landau])
    factored = np.array([landau.factored_state(c, setup) for c in op.landau])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = slater / factored   # an underflowed form gives inf/nan: a failure
    mean = np.mean(ratios)
    return within(float(np.max(np.abs(ratios - mean)) / abs(mean)), 1e-9)


SCAN_FAMILIES = (
    ("zn_closed", _check_zn),
    ("theta1", _check_theta),
    ("casimir", _check_casimir),
    ("log_xi2_closed", _check_log_xi2),
    ("phi_periodic", _check_phi),
    ("ocp_log_boltzmann", _check_ocp),
    ("nbody_weight", _check_nbody),
    ("identity", _check_identity),
    ("landau", _check_landau),
)


def _scan_checks(op: ScanOp):
    g = geometry.TorusGeometry(op.L, op.W, op.N)
    return [(name, lambda fn=fn: {"margin": fn(op, g)}) for name, fn in SCAN_FAMILIES]


class GeometryScan:
    name = "geometry-scan"
    nominal_block_s = 0.85
    min_blocks = 3

    def generate(self, seed: int, seconds: int):
        rng = np.random.default_rng([seed, 1])
        warm, _ = _scan_block(np.random.default_rng([seed, 1, 0]))
        blocks, digests = [], []
        for _ in range(_blocks(seconds, self.nominal_block_s, self.min_blocks)):
            ops, d = _scan_block(rng)
            blocks.append(ops)
            digests.append(d)
        return blocks, warm[0], hashlib.sha256("".join(digests).encode()).hexdigest()

    checks = staticmethod(_scan_checks)


# --------------------------------------------------------------------------
# plasma-mc: Monte Carlo of the defining integral at the contract minimum.

MC_SAMPLES = 100_000
MC_CONFIGS = tuple((N, r) for N in (2, 3) for r in (0.5, 1.0, 2.0))
MC_MAX_PULL = 4.0


@dataclass(frozen=True)
class McOp:
    N: int
    W_over_L: float
    seed: int


def _mc_checks(op: McOp):
    def partition_mc():
        chk = plasma.verify_partition_mc(
            geometry.TorusGeometry(1.0, op.W_over_L, op.N), samples=MC_SAMPLES, seed=op.seed
        )
        est = chk.estimate
        pull = abs(est.value - chk.closed_form) / est.std_error
        return {
            "margin": within(pull, MC_MAX_PULL, "MC pull in sigma"),
            "mc_rel_error": est.std_error / est.value,
        }

    return [("partition_mc", partition_mc)]


class PlasmaMc:
    name = "plasma-mc"
    # ~1.4 s per block; 17 blocks at --seconds 20 give 102 operations, so
    # op_tail_ms is a p90 with ten operations beyond it.
    nominal_block_s = 1.15
    min_blocks = 2

    def generate(self, seed: int, seconds: int):
        rng = np.random.default_rng([seed, 2])
        n = _blocks(seconds, self.nominal_block_s, self.min_blocks)
        seeds = rng.integers(0, 2**62, size=(n + 1, len(MC_CONFIGS)))
        blocks = []
        for b in range(1, n + 1):
            order = rng.permutation(len(MC_CONFIGS))
            blocks.append(
                [McOp(*MC_CONFIGS[k], int(seeds[b, k])) for k in order]
            )
        warm = McOp(2, 1.0, int(seeds[0, 0]))
        flat = np.array([(o.N, o.seed) for blk in blocks for o in blk], dtype=np.int64)
        ratios = np.array([o.W_over_L for blk in blocks for o in blk])
        return blocks, warm, _digest(flat, ratios, seeds)

    checks = staticmethod(_mc_checks)


WORKLOADS = {w.name: w for w in (Gate(), GeometryScan(), PlasmaMc())}
