"""The benchmark's workloads: seeded inputs, the dickekit calls of each job,
and the checks on their outputs.

A workload turns ``(seed, round index)`` into one round of jobs; a run
repeats whole rounds, each with fresh inputs, so a run covers many inputs and
its cost does not hang on one draw.  A job is ``(kind, call)``: ``call(span)``
makes its calls into dickekit inside spans and checks what they return,
raising ``checks.CheckError`` on a mismatch.  Sizes are fixed per workload;
the seed chooses everything else.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import subprocess
import sys
from types import SimpleNamespace

import dickekit as dk
from dickekit import cli

import checks as ck

XY = dk.QuadraticForm(a=(1.0, 1.0, 0.0))


def _crit2_form(shift: int) -> dk.QuadraticForm:
    return dk.QuadraticForm(a=(1.0, 1.0, 0.0), b=(0.0, 0.0, -2.0 * shift))


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, index: int) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{index}")

    def round(self, index: int) -> list:
        raise NotImplementedError

    def warmup(self) -> list:
        """The untimed jobs of set-up: the first job of each kind in round 0."""
        first = {}
        for kind, call in self.round(0):
            first.setdefault(kind, call)
        return list(first.items())

    def probe(self, span) -> None:
        """Extra traced calls after the timed rounds (none by default)."""


class NoisyDense(Workload):
    """White-noise and psixy-noise mixtures of |N/2,N> as dense density
    matrices, each judged by the fidelity witness and the theorem2 and
    variance criteria, plus both numeric noise-threshold bisections."""

    name = "noisy-dense"
    # Points of p per noise family.  The n = 8 mixtures are the middle of the
    # job-time distribution, so job_p50_ms is an n = 8 mixture; the two n = 10
    # mixtures take most of the time.
    GRID = {6: 2, 8: 6, 10: 1}
    THRESHOLD_SIZES = (4, 6, 8)

    def round(self, index):
        rng = self.rng(index)
        jobs = []
        for n, points in self.GRID.items():
            for noise in ("white", "psixy"):
                for k in range(points):
                    p = 0.9 * (k + rng.random()) / points  # jittered grid on [0, 0.9)
                    jobs.append((f"mixture-{noise}-{n}", self._mixture(n, noise, p)))
        for n in self.THRESHOLD_SIZES:
            jobs.append((f"threshold-fidelity-{n}", self._fidelity_threshold(n)))
            jobs.append((f"threshold-collective-{n}", self._collective_threshold(n)))
        return jobs

    @staticmethod
    def _mixture(n, noise, p):
        def call(span):
            if noise == "white":
                with span("states.dicke_state"):
                    target = dk.dicke_state(n, n // 2)
                with span("states.noise_mix"):
                    rho = dk.white_noise_mix(target, p)
            else:
                with span("states.noise_mix"):
                    rho = dk.psixy_noise_mix(n, p)
            with span("fidelity.witness_verdict"):
                fidelity = dk.fidelity_witness_verdict(rho, n, n // 2)
            with span("collective.criterion_verdict_dense"):
                theorem2 = dk.criterion_verdict(rho, "theorem2")
            with span("collective.criterion_verdict_dense"):
                variance = dk.criterion_verdict(rho, "variance")
            with span("operators.expectation_density"):
                jz = dk.expectation(rho, "z")
            ck.noisy_mixture(n, noise, p, fidelity, theorem2, variance, jz)
        return call

    @staticmethod
    def _fidelity_threshold(n):
        def call(span):
            with span("fidelity.threshold_numeric"):
                p = dk.fidelity_threshold_numeric(n)
            ck.close(f"fidelity threshold n={n}", p, ck.fidelity_threshold(n))
        return call

    @staticmethod
    def _collective_threshold(n):
        def call(span):
            with span("collective.threshold_numeric"):
                p = dk.collective_threshold_numeric(n, "theorem2", "white")
            ck.close(f"theorem2 threshold n={n}", p, ck.collective_threshold(n))
        return call


class OracleVerify(Workload):
    """Seeded alternating-update maxima over product and biseparable states,
    dense top eigenvalues, and seeded soundness sweeps over random states."""

    name = "oracle-verify"
    PRODUCT_SIZES = (3, 4, 5, 6)
    ORDERING_SIZES = (3, 4)
    EIGMAX_SIZES = (5, 6)
    SWEEPS = (("product", 6), ("biseparable", 3), ("biseparable", 4), ("density", 2))
    RESTARTS = 4
    SAMPLES = 200

    def __init__(self, seed):
        super().__init__(seed)
        self._built = set()  # (n, axis) pairs whose dense J matrices this process holds

    def round(self, index):
        rng = self.rng(index)
        jobs = []
        for n in self.PRODUCT_SIZES:
            # The largest coefficient leads the others by at least 0.4 of itself:
            # on near-ties the alternating updates stop short of the maximum.
            a = [1.0, rng.uniform(0.0, 0.6), rng.uniform(0.0, 0.6)]
            rng.shuffle(a)
            scale = rng.uniform(0.5, 2.0)
            a = tuple(scale * x for x in a)
            jobs.append((f"product-max-{n}", self._product_max(n, a, rng.randrange(2 ** 31))))
        for n in self.ORDERING_SIZES:
            seeds = rng.randrange(2 ** 31), rng.randrange(2 ** 31)
            jobs.append((f"ordering-{n}", self._ordering(n, *seeds)))
        for n in self.EIGMAX_SIZES:
            jobs.append((f"eigmax-{n}", self._eigmax(n)))
        for kind, n in self.SWEEPS:
            jobs.append((f"sweep-{kind}-{n}", self._sweep(kind, n, rng.randrange(2 ** 31))))
        return jobs

    def _operator(self, span, n, form):
        axes = {(n, axis) for axis, c in zip("xyz", form.a) if c}
        cold = not axes <= self._built
        self._built |= axes
        with span("operators.collective_operator_cold" if cold else "operators.collective_operator"):
            return dk.collective_operator(n, form)

    def _product_max(self, n, a, seed):
        def call(span):
            op = self._operator(span, n, dk.QuadraticForm(a=a))
            with span("oracle.product_max"):
                result = dk.maximize_over_product_states(op, restarts=self.RESTARTS, seed=seed)
            ck.product_maximum(n, a, result.value)
        return call

    def _ordering(self, n, product_seed, bisep_seed):
        def call(span):
            op = self._operator(span, n, XY)
            with span("oracle.product_max"):
                product = dk.maximize_over_product_states(op, restarts=self.RESTARTS, seed=product_seed)
            with span("oracle.bisep_max"):
                bisep = dk.maximize_over_biseparable(op, restarts=self.RESTARTS, seed=bisep_seed)
            with span("oracle.max_eigenvalue"):
                top = dk.max_eigenvalue(op)
            ck.ordering(n, product.value, bisep.value, top)
        return call

    def _eigmax(self, n):
        def call(span):
            op = self._operator(span, n, XY)
            with span("oracle.max_eigenvalue"):
                top = dk.max_eigenvalue(op)
            ck.top_eigenvalue(n, top)
        return call

    def _sweep(self, kind, n, seed):
        bound = {"product": ck.theorem2_bound, "biseparable": ck.xy_biseparable_max,
                 "density": lambda _n: ck.LEMMA2_BOUND}[kind](n)

        def call(span):
            with span("oracle.sample", self.SAMPLES):
                states = list(dk.sample_random_states(kind, n, self.SAMPLES, seed=seed))
            if kind == "density":
                values = [dk.lemma2_vector_norm(rho) for rho in states]
            else:
                op = self._operator(span, n, XY)
                with span("operators.expectation_pure", len(states)):
                    values = [dk.expectation(state, op) for state in states]
            ck.soundness(f"{kind} n={n}", values, bound)
        return call


class SymmetricLarge(Workload):
    """Dicke and psixy states on the symmetric backend at N = 10^3 to 10^4:
    superradiance, the theorem2, variance and symmetric_jz criteria, and
    crit2(m) with the Lemma 1 tensor-power solver."""

    name = "symmetric-large"
    SIZES = (1000, 2000, 5000, 10000)
    # Dicke evaluations are most of the jobs, and job_p50_ms falls among the
    # N = 5000 ones
    DICKE_PER_SIZE = 6
    # (N, shift) pairs stay fixed: the solver behind the crit2 bound takes from
    # 50 to 550 ms depending on the pair, so seeded pairs would tie the rate to
    # the seed.  The seed still chooses every state.
    CRIT2 = ((1000, 2), (2000, 5), (10000, 30))
    LEMMA1 = ((10000, 4),)
    TI_MAX = ((2000, 9),)

    def round(self, index):
        rng = self.rng(index)
        jobs = []
        for n in self.SIZES:
            for _ in range(self.DICKE_PER_SIZE):
                jobs.append((f"dicke-{n}", self._state(n, rng.randint(0, n), None)))
            jobs.append((f"psixy-{n}", self._state(n, None, rng.uniform(0.0, 2 * math.pi))))
        for n, shift in self.CRIT2:
            jobs.append((f"crit2-{n}", self._crit2(n, rng.randint(0, n), shift)))
        for n, shift in self.LEMMA1:
            jobs.append((f"lemma1-{n}", self._lemma1(n, shift)))
        for n, shift in self.TI_MAX:
            jobs.append((f"ti-max-{n}", self._ti_max(n, shift)))
        return jobs

    @staticmethod
    def _state(n, m, phi):
        # symmetric_jz runs on the Dicke states only: on psixy at N = 10^4 it
        # rejects the state as not maximal-spin for some phi (see CHANGES.md)
        kinds = ("theorem2", "variance") + (("symmetric_jz",) if phi is None else ())

        def call(span):
            with span("states.symmetric_state"):
                state = dk.dicke_symmetric(n, m) if phi is None else dk.psixy_symmetric(n, phi)
            with span("collective.superradiance_intensity"):
                intensity = dk.superradiance_intensity(state)
            verdicts = {}
            for kind in kinds:
                with span("collective.criterion_verdict_symmetric"):
                    verdicts[kind] = dk.criterion_verdict(state, kind)
            with span("operators.expectation_symmetric"):
                jz = dk.expectation(state, "z")
            ck.symmetric_state(n, m, intensity, verdicts["theorem2"], verdicts["variance"],
                               verdicts.get("symmetric_jz"), jz)
        return call

    @staticmethod
    def _crit2(n, m, shift):
        def call(span):
            with span("states.symmetric_state"):
                state = dk.dicke_symmetric(n, m)
            with span("collective.crit2_verdict"):
                verdict = dk.criterion_verdict(state, "crit2", m=shift)
            ck.crit2(n, m, shift, verdict)
        return call

    @staticmethod
    def _lemma1(n, shift):
        def call(span):
            with span("collective.lemma1_bound"):
                bound = dk.lemma1_bound(_crit2_form(shift), n)
            ck.close(f"lemma1 bound n={n} shift={shift}", bound, ck.crit2_bound(n, shift), ck.SOLVER_RTOL)
        return call

    @staticmethod
    def _ti_max(n, shift):
        def call(span):
            with span("oracle.ti_max"):
                result = dk.maximize_over_ti_product(_crit2_form(shift), n)
            ck.close(f"ti max n={n} shift={shift}", result.value, ck.crit2_bound(n, shift), ck.SOLVER_RTOL)
        return call


def _json(text: str) -> dict:
    def reject(constant):
        raise ck.CheckError(f"document holds {constant}, which is not JSON")
    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise ck.CheckError(f"document is not JSON: {exc}: {text[:200]!r}") from None


def _csv_rows(text: str) -> list[dict]:
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        raise ck.CheckError(f"document is not a CSV table: {text[:200]!r}")
    return rows


def _verdict_doc(doc: dict) -> SimpleNamespace:
    try:
        return SimpleNamespace(value=float(doc["value"]), bound=float(doc["bound"]),
                               margin=float(doc["margin"]), detected=doc["detected"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ck.CheckError(f"verdict document {doc!r}: {exc}") from None


class CliCold(Workload):
    """Fresh-process dickekit commands at small sizes, where start-up dominates."""

    name = "cli-cold"

    def round(self, index):
        return [(f"cli-{argv[0]}", self._process(argv, check))
                for argv, check in self._commands(self.rng(index))]

    def warmup(self):
        # one process start fills the page and bytecode caches every command shares
        return self.round(0)[:1]

    def probe(self, span):
        """Run round 0's commands in-process through ``cli.main``."""
        for argv, check in self._commands(self.rng(0)):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), span("cli.run"):
                status = cli.main(argv)
            if status != 0:
                raise RuntimeError(f"dickekit {' '.join(argv)} exited {status}")
            check(out.getvalue())

    @staticmethod
    def _process(argv, check):
        def call(span):
            with span("cli.process"):
                done = subprocess.run([sys.executable, "-m", "dickekit.cli", *argv],
                                      capture_output=True, text=True, timeout=120)
            if done.returncode != 0:
                raise RuntimeError(f"dickekit {' '.join(argv)} exited {done.returncode}: "
                                   f"{done.stderr.strip()[-300:]}")
            check(done.stdout)
        return call

    @staticmethod
    def _commands(rng):
        m = rng.randint(0, 4)
        p_witness = rng.uniform(0.0, 0.9)
        noise, p_criterion = rng.choice(("white", "psixy")), rng.uniform(0.0, 0.9)
        n_eig = rng.choice((5, 6))
        m_intensity = rng.randint(0, 10000)
        start, stop = rng.uniform(0.0, 0.4), rng.uniform(0.5, 0.9)
        n_appendix = rng.randrange(4, 65, 2)

        def dicke(out):
            doc = _json(out)
            ck.dicke_amplitudes(4, m, doc["amplitudes"])

        def witness(out):
            fidelity, _xy, _var = ck.noisy_moments(6, "white", p_witness)
            ck.verdict("witness", _verdict_doc(_json(out)), fidelity, ck.fidelity_bound_half(6), ck.GENUINE)

        def criterion(out):
            _fid, xy, _var = ck.noisy_moments(6, noise, p_criterion)
            ck.verdict("criterion", _verdict_doc(_json(out)), xy, ck.theorem2_bound(6), ck.ENTANGLED)

        def bound(out):
            ck.close("bound", _json(out)["bound"], ck.crit2_bound(10, 2), ck.SOLVER_RTOL)

        def eigmax(out):
            ck.top_eigenvalue(n_eig, _json(out)["value"])

        def intensity(out):
            z = m_intensity - 5000
            ck.close("intensity", _json(out)["intensity"], ck.max_spin(10000) - z * z + z,
                     0.0, ck.VALUE_RTOL * ck.max_spin(10000))

        def sweep(out):
            rows = _csv_rows(out)
            if len(rows) != 5:
                raise ck.CheckError(f"sweep-noise: {len(rows)} rows, expected 5")
            for row in rows:
                p = float(row["p"])
                _fid, xy, _var = ck.noisy_moments(6, "white", p)
                ck.verdict(f"sweep p={p}", _verdict_doc(row), xy, ck.theorem2_bound(6), ck.ENTANGLED)

        def appendix(out):
            ck.appendix(n_appendix, _json(out))

        return [
            (["dicke", "--n", "4", "--m", str(m)], dicke),
            (["witness", "--n", "6", "--p", repr(p_witness)], witness),
            (["criterion", "--n", "6", "--criterion", "theorem2", "--noise", noise,
              "--p", repr(p_criterion)], criterion),
            # fixed: the solver's cost depends on (n, shift), not on the seed's choice
            (["bound", "--n", "10", "--m-signed", "2"], bound),
            (["oracle", "eigmax", "--n", str(n_eig)], eigmax),
            (["intensity", "--n", "10000", "--m", str(m_intensity)], intensity),
            (["sweep-noise", "--n", "6", "--criterion", "theorem2",
              "--grid", f"{start!r}:{stop!r}:5"], sweep),
            (["verify-appendix", "--n", str(n_appendix)], appendix),
        ]


WORKLOADS = {w.name: w for w in (NoisyDense, OracleVerify, SymmetricLarge, CliCold)}


def layer_probe(span, missing: set[str]) -> None:
    """Time one call into each layer in ``missing`` on fixed small inputs.

    Covers the layers a workload's own jobs do not call, so every traced run
    reports every layer.  Each call runs once untimed first, except the cold
    operator build (n = 7, a size no workload builds in-process) and the
    solver and process calls, which hold no cache.
    """
    def timed(name, call, count=1, warm=True):
        if name in missing:
            if warm:
                call()
            with span(name, count):
                call()

    timed("operators.collective_operator_cold", lambda: dk.collective_operator(7, XY), warm=False)
    timed("operators.collective_operator", lambda: dk.collective_operator(7, XY))
    op7, op4 = dk.collective_operator(7, XY), dk.collective_operator(4, XY)
    psi7, dicke8 = dk.dicke_state(7, 3), dk.dicke_state(8, 4)
    rho8 = dk.white_noise_mix(dicke8, 0.25)
    sym = dk.dicke_symmetric(2000, 700)
    timed("states.dicke_state", lambda: dk.dicke_state(8, 4))
    timed("states.noise_mix", lambda: dk.white_noise_mix(dicke8, 0.25))
    timed("states.symmetric_state", lambda: dk.dicke_symmetric(2000, 700))
    timed("operators.expectation_pure", lambda: [dk.expectation(psi7, op7) for _ in range(100)], 100)
    timed("operators.expectation_density", lambda: dk.expectation(rho8, "z"))
    timed("operators.expectation_symmetric", lambda: [dk.expectation(sym, "z") for _ in range(100)], 100)
    timed("fidelity.witness_verdict", lambda: dk.fidelity_witness_verdict(rho8, 8, 4))
    timed("fidelity.threshold_numeric", lambda: dk.fidelity_threshold_numeric(6))
    timed("collective.criterion_verdict_dense", lambda: dk.criterion_verdict(rho8, "theorem2"))
    timed("collective.criterion_verdict_symmetric", lambda: dk.criterion_verdict(sym, "theorem2"))
    timed("collective.crit2_verdict", lambda: dk.criterion_verdict(sym, "crit2", m=3), warm=False)
    timed("collective.lemma1_bound", lambda: dk.lemma1_bound(_crit2_form(2), 100), warm=False)
    timed("collective.threshold_numeric", lambda: dk.collective_threshold_numeric(6, "theorem2"))
    timed("collective.superradiance_intensity",
          lambda: [dk.superradiance_intensity(sym) for _ in range(100)], 100)
    timed("oracle.product_max", lambda: dk.maximize_over_product_states(op4, restarts=4), warm=False)
    timed("oracle.bisep_max", lambda: dk.maximize_over_biseparable(op4, restarts=4), warm=False)
    timed("oracle.max_eigenvalue", lambda: dk.max_eigenvalue(op7))
    timed("oracle.ti_max", lambda: dk.maximize_over_ti_product(_crit2_form(2), 100), warm=False)
    timed("oracle.sample", lambda: list(dk.sample_random_states("product", 4, 200)), 200)

    def cli_main():
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["dicke", "--n", "4"])
    timed("cli.run", cli_main)
    timed("cli.process", lambda: subprocess.run(
        [sys.executable, "-m", "dickekit.cli", "dicke", "--n", "4"],
        capture_output=True, check=True, timeout=120), warm=False)
