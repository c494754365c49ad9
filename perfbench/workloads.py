"""The four benchmark workloads and their oracles.

A workload builds its inputs from the seed and then runs tasks.
``params(i)`` draws the parameters of task i before its timer starts,
``run(params)`` is the timed part and calls only the library, and
``check(i, params, out)`` runs the oracles after the timer has stopped.

The mix of calls and regimes in a task is fixed; the seed only draws the
parameters inside each call.  Where the regimes differ in cost by more than
about 2x (translation kernels of 1,024 against 32 or 64 nodes, the rebuilt
T_lambda grid) one task sweeps all four regimes, so every task of a run
costs about the same and the percentiles do not fall into the gap between
cheap and dear tasks.

Oracle verdicts come back as ``Check`` rows.  ``Check.gross`` marks the
rows whose miss means an operation failed: an exception, a non-finite
value, an identity beyond its acceptance-test tolerance, or phi off by more
than ``PHI_GROSS``; a task fails when one of them misses.  The other rows,
``phi.tol``, hold phi's relative error against its own ``tol``.  Their
misses are the known silent-cancellation defect of the 2F1 engine; they
are counted and reported as accuracy figures (``oracle.phi.*`` in the
traced run, standard error in every run) over the same seeded sample of
(lambda, t) pairs, whose ranges are not narrowed to avoid them.  Counted as
failed tasks they would make the failure count depend on how many tasks
fit into the timed window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import fourierjacobi as fj
from fourierjacobi import EvenMeasure, JacobiParams, StripScanGrid, gaussian_bump

# generic, alpha = beta, beta = -1/2 with integer alpha, integer alpha
REGIMES = (
    JacobiParams(2.3, 0.7),
    JacobiParams(1.2, 1.2),
    JacobiParams(3.0, -0.5),
    JacobiParams(1.0, 0.0),
)
PHI_TOL = 1e-12  # the default tol of fj.phi, which every call here relies on
PHI_GROSS = 1e-6  # |phi| <= 1 on the strip, so this bound is absolute
ORACLE_DPS = 30
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
WARM_UP_TASK = 2**31 - 1  # a task index no timed run reaches


@dataclass
class Check:
    name: str
    err: float
    tol: float
    gross: bool = True

    @property
    def ok(self) -> bool:
        return bool(math.isfinite(self.err) and self.err <= self.tol)


def _rel(got, want) -> float:
    return abs(complex(got) - complex(want)) / abs(complex(want))


def _one(t):
    return np.ones_like(np.asarray(t, dtype=float))


def _finite(name, *values) -> Check:
    ok = all(np.all(np.isfinite(v)) for v in values)
    return Check(name, 0.0 if ok else math.inf, 0.0)


# --- independent references: mpmath at ORACLE_DPS digits ---

def _mp():
    # imported on the first check, after the set-up has been timed, so the
    # oracle does not load mpmath into the measured set-up
    import mpmath

    return mpmath


def phi_reference(params: JacobiParams, lam, t) -> complex:
    """phi_lam(t) = 2F1((rho-i lam)/2, (rho+i lam)/2; alpha+1; -sinh^2 t)."""
    mp = _mp()
    with mp.workdps(ORACLE_DPS):
        lam = mp.mpc(complex(lam))
        rho = mp.mpf(params.rho)
        z = -mp.sinh(mp.mpf(float(t))) ** 2
        val = mp.hyp2f1((rho - 1j * lam) / 2, (rho + 1j * lam) / 2,
                        mp.mpf(params.alpha) + 1, z)
        return complex(val)


def c_reference(params: JacobiParams, lam) -> complex:
    """Harish-Chandra c-function from mpmath Gamma values."""
    mp = _mp()
    with mp.workdps(ORACLE_DPS):
        il = 1j * mp.mpc(complex(lam))
        a, b, rho = mp.mpf(params.alpha), mp.mpf(params.beta), mp.mpf(params.rho)
        val = (mp.power(2, rho - il) * mp.gamma(a + 1) * mp.gamma(il)
               * mp.rgamma((rho + il) / 2) * mp.rgamma((il + a - b + 1) / 2))
        return complex(val)


def phi_checks(rng, params, pools):
    """One mpmath check per pool of (lambdas, ts) pairs a call of the task used."""
    rows = []
    for lams, ts in pools:
        lam = complex(lams[rng.integers(len(lams))])
        t = float(ts[rng.integers(len(ts))])
        rows += phi_rows(fj.phi(params, lam, t), phi_reference(params, lam, t))
    return rows


def phi_rows(got, want):
    err = abs(complex(got) - want)
    return [Check("phi.tol", err / abs(want), PHI_TOL, gross=False),
            Check("phi.gross", err, PHI_GROSS)]


def plancherel_check(rng, params, lams, got) -> Check:
    k = rng.integers(len(lams))
    want = 1.0 / abs(c_reference(params, lams[k])) ** 2
    return Check("plancherel", abs(got[k] - want) / want, 1e-10)


def scan_check(report, threshold) -> Check:
    """Every reported cell must lie below the threshold it was screened by."""
    worst = max((c["min_abs"] for c in report["cells"]), default=0.0)
    return Check("scan.cells", worst, threshold)


def forward_nodes(tmax):
    """The t nodes forward_transform integrates over on [0, tmax]."""
    n_seg = max(16, int(np.ceil(tmax * 8)))
    edges = np.linspace(0.0, tmax, n_seg + 1)
    return fj.quadrature.composite_gauss_nodes(edges, 10)[0]


def measure_transforms(params, measures):
    return [(lambda lam, mu=mu: fj.forward_transform_measure(params, mu, lam))
            for mu in measures]


class Workload:
    """Seeded inputs, per-task parameters, the timed calls and their oracles."""

    name = ""
    why = ""

    def __init__(self, seed: int):
        self.seed = int(seed)

    def rng(self, i: int, stream: int = 0):
        # the warm-up draws the same parameters whatever the seed, so that
        # set-up costs the same in every run
        seed = 0 if i == WARM_UP_TASK else self.seed
        return np.random.default_rng([seed, i, stream])

    def warm_up(self):
        """One call of every kind the tasks make, on parameters no task uses."""
        self.run(self.params(WARM_UP_TASK))

    def params(self, i: int):
        raise NotImplementedError

    def run(self, prm):
        raise NotImplementedError

    def check(self, i: int, prm, out):
        raise NotImplementedError


class SpectralLowband(Workload):
    name = "spectral-lowband"
    why = ("|Re lambda| <= 20 keeps every 2F1 on the double-precision routes; "
           "per-term series cost and per-lambda loops dominate, mpmath does nothing")

    F_TMAX, F_WIDTH = 4.0, 0.7
    INV_LMAX, INV_SEGMENTS = 10.0, 1
    # far below every |fhat| the grids meet, so no cell is refined and the
    # scan costs the same in every task
    SCAN_THRESHOLD = 1e-9
    # each task gives every regime one kind of spectral point, in a
    # Latin-square rotation, so every task holds every kind once
    KINDS = ("real", "complex", "imaginary-integer", "rail")

    def __init__(self, seed):
        super().__init__(seed)
        self.f = gaussian_bump(self.F_TMAX, 129, width=self.F_WIDTH)
        self.f_nodes = forward_nodes(self.F_TMAX)
        self.mu = EvenMeasure(atom0=0.2, atoms=[(0.6, 0.5), (1.7, 0.3)])
        self.family = [EvenMeasure(atoms=[(0.8, 1.0)]), EvenMeasure(atoms=[(1.3, 1.0)])]
        # inverse_transform's input: fhat sampled at its spectral nodes
        self.inv_nodes = fj.spectral_nodes(self.INV_LMAX, self.INV_SEGMENTS)[0]
        self.fhat = [
            _Table(self.inv_nodes, [fj.forward_transform(p, self.f, x) for x in self.inv_nodes])
            for p in REGIMES
        ]

    def _point(self, rng, kind, rho):
        if kind == "real":
            return complex(rng.uniform(-20.0, 20.0))
        if kind == "complex":
            return complex(rng.uniform(-20.0, 20.0), rng.uniform(-0.95, 0.95) * rho)
        if kind == "rail":
            return complex(rng.uniform(-20.0, 20.0), rho * rng.choice([-1.0, 1.0]))
        ks = [k for k in range(1, int(math.ceil(rho))) if k < rho]
        return 1j * ks[rng.integers(len(ks))] * rng.choice([-1.0, 1.0])

    def params(self, i):
        rng = self.rng(i)
        out = []
        for r, p in enumerate(REGIMES):
            rho = p.rho
            out.append({
                "lam": self._point(rng, self.KINDS[(i + r) % len(self.KINDS)], rho),
                "lam_mu": complex(rng.uniform(-20.0, 20.0), rng.uniform(-0.95, 0.95) * rho),
                "t_inv": np.sort(rng.uniform(0.0, 2.0, 3)),
                "lam_pl": rng.uniform(0.5, 20.0, 16),
                "scan": StripScanGrid(float(rng.uniform(5.0, 20.0)), 2, 0.2, 1),
            })
        return out

    def run(self, prm):
        out = []
        for p, q, fhat in zip(REGIMES, prm, self.fhat):
            family = measure_transforms(p, self.family)
            out.append({
                "fwd": fj.forward_transform(p, self.f, q["lam"]),
                "mu": fj.forward_transform_measure(p, self.mu, q["lam_mu"]),
                "inv": fj.inverse_transform(p, fhat, q["t_inv"], lambda_max=self.INV_LMAX,
                                            n_segments=self.INV_SEGMENTS),
                "pl": fj.plancherel_density(p, q["lam_pl"]),
                "scan": fj.scan_common_zeros(p, family, q["scan"], self.SCAN_THRESHOLD),
            })
        return out

    def check(self, i, prm, out):
        rng = self.rng(i, 1)
        rows = []
        scan_atoms = [t for m in self.family for t, _ in m.atoms]
        for p, q, o in zip(REGIMES, prm, out):
            err = float(np.max(np.abs(o["inv"] - self.f(q["t_inv"]))))
            rows += [
                Check("inverse.roundtrip", err, 1e-3),
                plancherel_check(rng, p, q["lam_pl"], o["pl"]),
                _finite("finite", o["fwd"], o["mu"]),
                scan_check(o["scan"], self.SCAN_THRESHOLD),
            ]
            pools = [
                ([q["lam"]], self.f_nodes),
                ([q["lam_mu"]], [t for t, _ in self.mu.atoms]),
                (self.inv_nodes, q["t_inv"]),
                (q["scan"].points(p), scan_atoms),
            ]
            # two of the four calls per regime keep the mpmath cost per task low
            picked = rng.choice(len(pools), 2, replace=False)
            rows += phi_checks(rng, p, [pools[k] for k in sorted(picked)])
        return rows


class SpectralHighband(Workload):
    name = "spectral-highband"
    why = ("Re lambda in [20, 40] crosses the mpmath cliff and both known "
           "silent-cancellation points; a 2F1 engine without the fallback shows here")

    F_TMAX, F_WIDTH = 4.0, 0.7
    N_PHI = 24
    SCAN_THRESHOLD = SpectralLowband.SCAN_THRESHOLD

    def __init__(self, seed):
        super().__init__(seed)
        self.f = gaussian_bump(self.F_TMAX, 129, width=self.F_WIDTH)
        self.f_nodes = forward_nodes(self.F_TMAX)
        self.mu = EvenMeasure(atoms=[(0.5, 0.6), (1.1, 0.4)])
        self.family = [EvenMeasure(atoms=[(0.9, 1.0)]), EvenMeasure(atoms=[(1.6, 1.0)])]
        self.offsets = np.random.default_rng([self.seed, 0, 2]).uniform(size=2)

    def _band(self, i, k):
        # a low-discrepancy sequence over [20, 40]: every prefix of the task
        # sequence covers the band evenly, whatever the seed; the warm-up
        # sits mid-band, past the mpmath cliff, whatever the seed
        if i == WARM_UP_TASK:
            return 30.0
        return 20.0 + 20.0 * ((self.offsets[k] + (i + 1) * GOLDEN) % 1.0)

    def params(self, i):
        # the regimes cost within 1.5x of each other at equal lambda, so
        # tasks rotate through them instead of sweeping
        rng = self.rng(i)
        r = i % len(REGIMES)
        rho = REGIMES[r].rho
        re = self._band(i, 0)
        return {
            "regime": r,
            "lam": complex(re, rng.uniform(-0.6, 0.6) * rho),
            "lam_phi": complex(self._band(i, 1), rng.uniform(-0.1, 0.1) * rho),
            "ts": np.linspace(rng.uniform(0.0, 0.05), 3.0, self.N_PHI),
            "t_inv": np.array([rng.uniform(0.2, 2.0)]),
            "lam_pl": rng.uniform(20.0, 40.0, 8),
            "scan": StripScanGrid(re, 2, 0.3, 1),
        }

    def run(self, prm):
        p = REGIMES[prm["regime"]]
        lam = prm["lam"]
        return {
            "fwd": fj.forward_transform(p, self.f, lam),
            "phi": fj.phi(p, prm["lam_phi"], prm["ts"]),
            "mu": fj.forward_transform_measure(p, self.mu, lam),
            "inv": fj.inverse_transform(p, _gauss_hat, prm["t_inv"], lambda_max=lam.real,
                                        n_segments=1),
            "pl": fj.plancherel_density(p, prm["lam_pl"]),
            "scan": fj.scan_common_zeros(p, measure_transforms(p, self.family), prm["scan"],
                                         self.SCAN_THRESHOLD),
        }

    def check(self, i, prm, out):
        rng = self.rng(i, 1)
        p = REGIMES[prm["regime"]]
        lam = prm["lam"]
        k = rng.integers(self.N_PHI)
        rows = [
            plancherel_check(rng, p, prm["lam_pl"], out["pl"]),
            _finite("finite", out["fwd"], out["mu"], out["inv"], out["phi"]),
            scan_check(out["scan"], self.SCAN_THRESHOLD),
            # the t-grid call itself, not a scalar re-evaluation
            *phi_rows(out["phi"][k], phi_reference(p, prm["lam_phi"], prm["ts"][k])),
        ]
        rows += phi_checks(rng, p, [
            ([lam], self.f_nodes),
            ([lam], [t for t, _ in self.mu.atoms]),
            (fj.spectral_nodes(lam.real, 1)[0], prm["t_inv"]),
            (prm["scan"].points(p), [t for m in self.family for t, _ in m.atoms]),
        ])
        return rows


def _gauss_hat(lams):
    """A smooth even spectral profile for the high-band inversion."""
    lams = np.asarray(lams, dtype=float)
    return np.exp(-((lams / 12.0) ** 2)).astype(complex)


class ResolventStrip(Workload):
    name = "resolvent-strip"
    why = ("the only route into phi_second_kind near t = 0 and its integer-alpha "
           "log case; T_lambda builds a CubicSpline per call")

    F_TMAX = 4.0
    N_GRID = 1001
    # resolvent_transform's interior branch rebuilds T_lambda on its default
    # 8001-point grid; it runs on the integer-alpha (log-case) regime only
    INTERIOR = (3,)

    def __init__(self, seed):
        super().__init__(seed)
        self.f = gaussian_bump(self.F_TMAX, 129, width=0.6, center=1.0)
        self._fhat_irho = {}

    def params(self, i):
        rng = self.rng(i)
        out = []
        for p in REGIMES:
            rho = p.rho
            out.append({
                "lam": complex(rng.uniform(0.2, 2.0), rng.uniform(0.2, 0.8) * rho),
                "xi": complex(rng.uniform(0.0, 2.5), rng.uniform(-0.3, 0.3)),
                "lam_ext": complex(rng.uniform(0.0, 2.0), rho + rng.uniform(0.5, 1.5)),
                "xi_b": float(rng.uniform(0.0, 3.0)),
                "t_w": float(rng.uniform(0.2, 0.6)),  # below the 0.7 near-one split
            })
        return out

    def run(self, prm):
        out = []
        for r, (p, q) in enumerate(zip(REGIMES, prm)):
            op = fj.TLambdaOperator(p, self.f, q["lam"], n_grid=self.N_GRID)
            o = {
                "fhat_lam": op.fhat_lam,
                "that": fj.t_lambda_hat(p, op, q["lam"], q["xi"]),
                "bhat": fj.b_hat(p, q["lam_ext"], q["xi_b"]),
                "wr": fj.wronskian_bracket(p, q["lam"], q["t_w"]),
                "res_ext": fj.resolvent_transform(p, _one, None, q["lam_ext"]),
            }
            if r in self.INTERIOR:
                o["res_int"] = fj.resolvent_transform(p, _one, self.f, q["lam"])
            out.append(o)
        return out

    def _irho(self, r):
        if r not in self._fhat_irho:
            p = REGIMES[r]
            self._fhat_irho[r] = fj.forward_transform(p, self.f, 1j * p.rho)
        return self._fhat_irho[r]

    def check(self, i, prm, out):
        rng = self.rng(i, 1)
        rows = []
        for r, (p, q, o) in enumerate(zip(REGIMES, prm, out)):
            lam, xi, lx, xb = q["lam"], q["xi"], q["lam_ext"], q["xi_b"]
            spectral = (o["fhat_lam"] - fj.forward_transform(p, self.f, xi)) / (xi * xi - lam * lam)
            glue = -1.0 / (lx * lx + p.rho ** 2)
            rows += [
                Check("tlambda.identity", _rel(o["that"], spectral), 1e-4),
                Check("b_hat", _rel(o["bhat"], 1.0 / (xb * xb - lx * lx)), 1e-5),
                Check("wronskian", _rel(o["wr"], 2j * lam * c_reference(p, -lam)), 1e-5),
                Check("resolvent.exterior", _rel(o["res_ext"], glue), 1e-5),
            ]
            if "res_int" in o:
                # g = 1 pairs with phi_{i rho}: (1 - fhat(i rho)/fhat(lam)) / -(lam^2 + rho^2)
                ratio = self._irho(r) / fj.forward_transform(p, self.f, lam)
                want = (1.0 - ratio) * (-1.0 / (lam * lam + p.rho ** 2))
                rows.append(Check("resolvent.interior", _rel(o["res_int"], want), 1e-3))
            rows += phi_checks(rng, p, [([lam], [q["t_w"]])])
        return rows


class ConvolutionIteration(Workload):
    name = "convolution-iteration"
    why = ("translation kernels and per-output-t evaluation of f, with 2F1 only "
           "in the probes: an engine change should not move it, batching f should")

    STEPS = 2
    N_ORACLE_LAMS = 4

    def __init__(self, seed):
        super().__init__(seed)
        self.f = gaussian_bump(4.0, 65, width=0.6)
        self.g = gaussian_bump(0.75, 25, width=0.3)
        # the convolution theorem is checked at a few seeded lambdas per run,
        # so fhat and ghat are computed once per lambda, outside any timing
        self.oracle_lams = np.random.default_rng([self.seed, 0, 2]).uniform(
            0.3, 2.0, self.N_ORACLE_LAMS)
        self._hats = {}

    def params(self, i):
        rng = self.rng(i)
        out = []
        for _ in REGIMES:
            w1, w2 = rng.uniform(0.2, 0.35), rng.uniform(0.15, 0.3)
            atoms = [(rng.uniform(0.15, 0.3), w1), (rng.uniform(0.35, 0.5), w2)]
            out.append({"mu": EvenMeasure(atom0=1.0 - w1 - w2, atoms=atoms),
                        "probe": float(rng.uniform(0.3, 2.0))})
        return out

    def run(self, prm):
        out = []
        for p, q in zip(REGIMES, prm):
            step = fj.harmonic_step(p, self.f, q["mu"])
            out.append({
                "step": step,
                "iter": fj.iterate_and_report(p, step, q["mu"], self.STEPS, probes=(q["probe"],)),
                "conv": fj.convolve(p, self.f, self.g, s_segments=1),
            })
        return out

    def _hat(self, r, lam):
        key = (r, lam)
        if key not in self._hats:
            p = REGIMES[r]
            self._hats[key] = (fj.forward_transform(p, self.f, lam),
                               fj.forward_transform(p, self.g, lam))
        return self._hats[key]

    def check(self, i, prm, out):
        rng = self.rng(i, 1)
        rows = []
        for r, (p, q, o) in enumerate(zip(REGIMES, prm, out)):
            lam = float(self.oracle_lams[rng.integers(self.N_ORACLE_LAMS)])
            fh, gh = self._hat(r, lam)
            muh = fj.forward_transform_measure(p, q["mu"], lam)
            rows += [
                Check("convolution.measure",
                      _rel(fj.forward_transform(p, o["step"], lam), fh * muh), 2e-4),
                Check("convolution.function",
                      _rel(fj.forward_transform(p, o["conv"], lam), fh * gh), 2e-4),
                _finite("finite", [s["flatness"] for s in o["iter"].steps]),
            ]
            probe = o["iter"].probes[0]
            want = q["mu"].atom0 + sum(w * phi_reference(p, probe["lambda"], t)
                                       for t, w in q["mu"].atoms)
            rows.append(Check("probe.muhat", _rel(complex(*probe["muhat"]), want), 1e-10))
        return rows


class _Table:
    """fhat given by its samples at the inversion nodes (exact there)."""

    def __init__(self, nodes, vals):
        self.nodes = np.asarray(nodes, dtype=float)
        self.vals = np.asarray(vals, dtype=complex)

    def __call__(self, lams):
        lams = np.asarray(lams, dtype=float)
        return np.interp(lams, self.nodes, self.vals.real) + 1j * np.interp(
            lams, self.nodes, self.vals.imag)


WORKLOADS = {w.name: w for w in (SpectralLowband, SpectralHighband, ResolventStrip,
                                 ConvolutionIteration)}
