"""The four benchmark workloads: inputs, one task, and its checks.

Each workload builds its inputs from the run seed, runs one task per
input through tpoly's public functions or ``tpoly.cli.main``, and checks
the outputs against ``oracles`` (computed apart from the program) or
against properties the method must have.  A check returns a list of
(check name, message) pairs; an empty list means the output is right.

``setup`` is what a run does before its first task: import tpoly, build
the fixed inputs and warm the program's caches.  It must stay free of
reference computations, because the set-up probes time it; those are
made once in ``prepare_checks``, before the first task.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import oracles


def random_residues(d: int, p: int, rng: random.Random) -> dict:
    """Nonzero residues at every point of the closed unit triangle but
    the origin.

    Every task then has the same monomials, and so nearly the same cost:
    one zero coefficient makes a twisted-zq task about a fifth cheaper.
    """
    return {(x, y): rng.randrange(1, p)
            for x in range(d + 1) for y in range(d + 1 - x) if (x, y) != (0, 0)}


def pair_references(pairs) -> dict:
    """(d, p) -> permanent and determinant of the special-pair matrix,
    and the vertex exponents."""
    refs = {}
    for d, p in pairs:
        mat = oracles.special_pair_matrix(d, p)
        refs[(d, p)] = (oracles.permanent(mat), oracles.determinant(mat),
                        list(oracles.vertex_exponents(d, p)))
    return refs


def run_cli(argv: list[str]) -> tuple[int, str]:
    """tpoly.cli.main in-process, with its JSON report captured."""
    from tpoly import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class CharSeriesWorkload:
    """char_series plus newton_polygon_C, one seeded random f per task."""

    name = ""
    d = p = M = N = L = n = 0

    def setup(self, seed: int) -> None:
        import tpoly.cli  # noqa: F401 - every tpoly invocation pays this
        from tpoly import dwork, lattice, series
        self.seed = seed
        self.delta = lattice.isosceles(self.d)
        dwork.window_points(self.delta, self.p, self.N)
        series.artin_hasse(series.SeriesRing(self.p, self.M, self.N))

    def prepare_checks(self) -> None:
        self.ihp = oracles.ihp_values(self.d, self.p, self.L)

    def task_input(self, i: int) -> dict:
        rng = random.Random(self.seed * 1_000_003 + i)
        return random_residues(self.d, self.p, rng)

    def run(self, f: dict):
        from tpoly import dwork
        cs = dwork.char_series(self.delta, f, self.p, self.M, self.N,
                               self.L, n=self.n)
        _, certified, _ = dwork.newton_polygon_C(cs)
        return {"u": cs.u, "certified": certified}

    def check(self, f: dict, out: dict) -> list[tuple[str, str]]:
        errs = []
        pm = self.p ** self.M
        u = out["u"]
        if len(u) != self.L + 1 or any(len(s) != self.N for s in u):
            return [("shape", f"expected {self.L + 1} series of length {self.N}")]
        if int(u[0][0]) % pm != 1 or any(int(c) % pm for c in u[0][1:]):
            errs.append(("u0_is_one", "u_0 differs from 1"))
        want = oracles.expected_u1(f, self.p, self.M, self.N, self.n)
        if (u[1] % pm != want).any():
            errs.append(("u1_torus_sum", "u_1 differs from -S*/(q-1)^2"))
        vals = [next((t for t, c in enumerate(series) if int(c) % pm), None)
                for series in u]
        if out["certified"] != [ell for ell, v in enumerate(vals) if v is not None]:
            errs.append(("certified_points", "certified l differ from the "
                         "l with u_l nonzero mod (p^M, T^N)"))
        for ell, val in enumerate(vals):
            if val is not None and val < self.n * self.ihp[ell]:
                errs.append(("np_above_ihp",
                             f"v_T(u_{ell}) = {val} < {self.n} * IHP = "
                             f"{self.n * self.ihp[ell]}"))
        return errs

    def deep_check(self, f: dict, out: dict) -> list[tuple[str, str]]:
        return []


class NpWindow(CharSeriesWorkload):
    name = "np-window"
    d, p, M, N, L, n = 3, 7, 2, 20, 21, 1

    def deep_check(self, f: dict, out: dict) -> list[tuple[str, str]]:
        """Every u_l against Berkowitz on the same window operator."""
        from tpoly import dwork
        ring = dwork.SeriesRing(self.p, self.M, self.N)
        lifted = {q: dwork.teichmueller_int(c, self.p, self.M)
                  for q, c in f.items()}
        e_map = dwork.expand_Ef(self.delta, lifted, ring, w_cap=self.N)
        window = dwork.window_points(self.delta, self.p, self.N)
        mat = dwork.dwork_matrix(self.delta, ring, e_map, window, self.p)
        want = oracles.berkowitz_coeffs(mat, ring.modulus, self.L)
        return [("u_berkowitz", f"u_{ell} differs from Berkowitz")
                for ell in range(self.L + 1)
                if (out["u"][ell] % ring.modulus != want[ell]).any()]


class TwistedZq(CharSeriesWorkload):
    name = "twisted-zq"
    d, p, M, N, L, n = 2, 7, 2, 14, 3, 2


class SpecialClasses:
    """tpoly special at (7,53) and (5,19); the task has no seeded input."""

    name = "special-classes"
    pairs = ((7, 53), (5, 19))

    def setup(self, seed: int) -> None:
        import tpoly.cli  # noqa: F401
        from tpoly import lattice
        for d, p in self.pairs:
            lattice.split_T1(lattice.isosceles(d), p)

    def prepare_checks(self) -> None:
        self.refs = pair_references(self.pairs)

    def task_input(self, i: int):
        return self.pairs

    def run(self, pairs):
        return [run_cli(["special", "--d", str(d), "--p", str(p)])
                for d, p in pairs]

    def check(self, pairs, out) -> list[tuple[str, str]]:
        errs = []
        for (d, p), (code, text) in zip(pairs, out):
            rep = json.loads(text)
            tag = f"({d},{p})"
            if code != 0:
                errs.append(("exit_code", f"{tag} exited {code}"))
            perm, det, want = self.refs[(d, p)]
            classes = rep["classes"]
            if rep["count"] != perm:
                errs.append(("count_is_permanent",
                             f"{tag} count {rep['count']} is not {perm}"))
            if sum(c["sign_balance"] for c in classes) != det:
                errs.append(("signs_sum_to_determinant", f"{tag} sign sum"))
            if sum(c["size"] for c in classes) != rep["count"]:
                errs.append(("class_sizes_sum_to_count", f"{tag} class sizes"))
            if any(c["exponents"][:2] != want for c in classes):
                errs.append(("vertex_exponents", f"{tag} exponents != {want}"))
        return errs

    def deep_check(self, pairs, out) -> list[tuple[str, str]]:
        return []


class VerifyBattery:
    """tpoly verify at the paper's worked pairs, one verify seed per task."""

    name = "verify-battery"
    pairs = ((7, 17), (13, 41))

    def setup(self, seed: int) -> None:
        import tpoly.cli  # noqa: F401
        from tpoly import lattice
        self.seed = seed
        for d, p in self.pairs:
            lattice.split_T1(lattice.isosceles(d), p)

    def prepare_checks(self) -> None:
        self.refs = pair_references(self.pairs)

    def task_input(self, i: int) -> int:
        return self.seed * 1000 + i

    def run(self, vseed: int):
        return [run_cli(["verify", "--d", str(d), "--p", str(p),
                         "--seed", str(vseed)]) for d, p in self.pairs]

    def check(self, vseed: int, out) -> list[tuple[str, str]]:
        errs = []
        for (d, p), (code, text) in zip(self.pairs, out):
            rep = json.loads(text)
            tag = f"({d},{p})"
            if code != 0 or rep["failures"] != 0:
                errs.append(("no_failures", f"{tag} exit {code}, "
                             f"{rep['failures']} failures"))
            if rep["seed"] != vseed:
                errs.append(("seed_echoed", f"{tag} seed {rep['seed']}"))
            gated = "pass" if oracles.beta_hypothesis(d, p) else "out-of-hypothesis"
            for c in rep["checks"]:
                want = gated if c["name"] in ("beta_pipeline",
                                              "k2_distribution_rows") else "pass"
                if c["status"] != want:
                    errs.append(("status_by_hypothesis",
                                 f"{tag} {c['name']}: {c['status']} != {want}"))
                perm = self.refs[(d, p)][0]
                if c["name"] == "example_special_bijection_present" \
                        and c["computed"] != perm:
                    errs.append(("bijection_count_is_permanent",
                                 f"{tag} {c['computed']} != {perm}"))
        return errs

    def deep_check(self, vseed: int, out) -> list[tuple[str, str]]:
        """A second report for the same seed must be byte-identical."""
        again = self.run(vseed)
        return [("byte_identical_repeat", f"({d},{p}) report changed")
                for (d, p), a, b in zip(self.pairs, out, again) if a != b]


WORKLOADS = {w.name: w for w in (NpWindow, TwistedZq, SpecialClasses,
                                 VerifyBattery)}

# verify check names at the two pairs, for the per-layer metric list
VERIFY_CHECKS = (
    "beta_pipeline", "c0_distribution_rows", "eta_permutation_bijective",
    "example_permutation_is_minimal", "example_special_bijection_present",
    "figure2_T12_set", "figure3_Y0_set", "fundamental_cell_C0_set",
    "h2_linearity_k2", "h_T1_greedy_oracle_closed_form",
    "ihp_vertices_and_slope", "k2_distribution_rows",
    "special_combo_exponent_maximality", "weight_linearity",
    "x_counts_match_formula",
)
