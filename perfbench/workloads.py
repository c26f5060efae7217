"""The benchmark's workloads: what one item runs and how its answers are
checked.

An item is the fixed sequence of ``divalg`` jobs a user runs for one input.
Its inputs are derived from the benchmark seed and the item's index, so the
same seed gives the same items.  Every job's answer is checked against a
known value and every emitted artifact against a reference that does not
come from the code under test:

* ``lift-deg3-conj``: the expected lifting is S Phi_bent(S^t v), composed
  here from the bent map's lifting frozen in ``references.json``;
* ``pipeline-deg1`` and ``lift-deg5``: digests of the artifacts frozen in
  ``references.json`` for a pool of checked input seeds (see freeze.py).
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import inputs

REFERENCES = Path(__file__).with_name("references.json")


def canonical(doc) -> str:
    """divalg's canonical report encoding: sorted keys, indent 2, newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_references():
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


class Job:
    """One CLI invocation with the answers it must give.

    ``expect`` maps a dotted path in the JSON report to its known value;
    ``artifacts`` maps a file the job writes (or ``"report:<key>"`` for a
    document inside the report) to its expected digest.
    """

    def __init__(self, argv, expect, artifacts=None):
        self.argv = list(argv)
        self.expect = expect
        self.artifacts = artifacts or {}

    def problems(self, code, stdout, workdir: Path):
        if code != 0:
            return [f"exit code {code}"]
        try:
            report = json.loads(stdout)
        except ValueError:
            return ["report is not JSON"]
        out = []
        for path, want in self.expect.items():
            got = report
            for key in path.split("."):
                got = got.get(key) if isinstance(got, dict) else None
            if got != want:
                out.append(f"{path} = {got!r}, expected {want!r}")
        for name, want in self.artifacts.items():
            if name.startswith("report:"):
                text = canonical(report.get(name[len("report:"):]))
            else:
                try:
                    text = (workdir / name).read_text(encoding="utf-8")
                except OSError:
                    out.append(f"{name} was not written")
                    continue
            if digest(text) != want:
                out.append(f"{name} differs from the reference")
        return out


class Workload:
    name = ""
    why = ""
    # every process of a run must have ended this many seconds after it began
    deadline_s = 170

    def __init__(self, references):
        self.references = references

    def jobs(self, seed, index, workdir: Path):
        """Write the item's input files into workdir; return its jobs."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# lift-deg3-conj


def _signed_permutation(rng):
    perm = list(range(inputs.N))
    rng.shuffle(perm)
    return [[Fraction(rng.choice((-1, 1))) if perm[i] == j else Fraction(0)
             for j in range(inputs.N)] for i in range(inputs.N)]


def _matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def conjugated_lifting(phi_doc, s):
    """The canonical lifting document of S Phi(S^t v), composed exactly.

    Canonical as divalg defines it: integer coefficients of content 1, the
    first nonzero coefficient (component order, exponents descending)
    positive, terms listed with exponents descending.
    """
    n = phi_doc["n"]
    # (S^t v)_a = sum_b S[b][a] v_b as {exponent tuple: coefficient}
    forms = []
    for a in range(n):
        forms.append({tuple(int(t == b) for t in range(n)): s[b][a]
                      for b in range(n) if s[b][a]})

    def times(p, q):
        out = {}
        for e1, c1 in p.items():
            for e2, c2 in q.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return out

    substituted = []
    for comp in phi_doc["components"]:
        acc = {}
        for term in comp:
            prod = {(0,) * n: Fraction(term["coeff"])}
            for a, e in enumerate(term["exponents"]):
                for _ in range(e):
                    prod = times(prod, forms[a])
            for e, c in prod.items():
                acc[e] = acc.get(e, 0) + c
        substituted.append(acc)
    comps = []
    for k in range(n):
        acc = {}
        for c in range(n):
            if s[k][c]:
                for e, x in substituted[c].items():
                    acc[e] = acc.get(e, 0) + s[k][c] * x
        comps.append({e: x for e, x in acc.items() if x})

    ordered = [comp[e] for comp in comps for e in sorted(comp, reverse=True)]
    den = lcm(*(x.denominator for x in ordered))
    nums = [x.numerator * (den // x.denominator) for x in ordered]
    content = 0
    for a in nums:
        content = gcd(content, a)
    scale = Fraction(den, content) * (1 if nums[0] > 0 else -1)
    return {
        "kind": "lifting",
        "n": n,
        "degree": phi_doc["degree"],
        "components": [
            [{"exponents": list(e), "coeff": inputs.scalar(comp[e] * scale)}
             for e in sorted(comp, reverse=True)]
            for comp in comps
        ],
    }


class LiftDeg3Conj(Workload):
    """The README's bent map conjugated by S = Q R.

    R is one fixed rational rotation (the Cayley transform of a sparse
    antisymmetric matrix), chosen because its conjugate needs a second
    prime and a CRT retry at d = 3.  Q is a seeded signed permutation per
    item: it relabels coordinates, so every item differs in its bytes but
    not in its cost, which keeps the run-to-run spread small.
    """

    name = "lift-deg3-conj"
    why = ("many small eliminations (up to 6468x588), a second prime and a CRT retry at "
           "d=3, verify_lifting ~30% of the item; shows costs on small systems")

    def __init__(self, references):
        super().__init__(references)
        self.base = inputs.cayley_orthogonal(references["lift-deg3-conj"]["rotation_seed"])
        self.bent = references["lift-deg3-conj"]["bent3_lifting"]

    def rotation(self, seed, index):
        q = _signed_permutation(random.Random(f"perfbench:{self.name}:{seed}:{index}"))
        return _matmul(q, self.base)

    def jobs(self, seed, index, workdir):
        s = self.rotation(seed, index)
        tensor = inputs.conjugate(inputs.bent3_tensor(), s)
        (workdir / "S.json").write_text(json.dumps(inputs.map_document(tensor)))
        expected = canonical(conjugated_lifting(self.bent, s))
        return [Job(["lift", "--input", "S.json", "--emit", "phi.json"],
                    {"degree": 3, "verification.all_pass": True},
                    {"phi.json": digest(expected)})]


# ---------------------------------------------------------------------------
# lift-deg5


class LiftDeg5(Workload):
    """Seeded random antisymmetric tensors with entries in [-2, 2] whose
    degree (5) and lifting digest were checked when references.json was
    frozen; seed 7 is the test suite's rand5."""

    name = "lift-deg5"
    deadline_s = 400  # one item takes 60 to 80 s; a traced run twice that
    why = ("the full d=1..5 scan up to 21021x3234, dominated by mod-p elimination; "
           "shows gains in modkernel and the lifting layers")

    def jobs(self, seed, index, workdir):
        pool = self.references[self.name]["tensors"]
        order = random.Random(f"perfbench:{self.name}:{seed}").sample(sorted(pool), len(pool))
        tensor_seed = order[index % len(order)]
        (workdir / "T.json").write_text(
            json.dumps(inputs.map_document(inputs.random_tensor(int(tensor_seed)))))
        return [Job(["lift", "--input", "T.json", "--emit", "phi.json"],
                    {"degree": 5, "verification.all_pass": True},
                    {"phi.json": pool[tensor_seed]})]


# ---------------------------------------------------------------------------
# pipeline-deg1


# Dissidence and division trials per item.  A fifth of the CLI's default
# of 1000 halves the item, so a run holds twice as many items and its
# medians spread less; the trials run the same Fraction code as before.
PIPELINE_TRIALS = 200


def pipeline_jobs(q, alg_digest=None, triple_digest=None):
    """The five jobs of one quadruple seed q."""
    seed = ["--seed", str(q)]
    trials = ["--trials", str(PIPELINE_TRIALS)]
    return [
        Job(["degree", "--quadruple", "random", *seed, *trials],
            {"degree": 1, "verification.all_pass": True}),
        Job(["check", "--what", "division", "--quadruple", "random", *seed, *trials],
            {"pass": True}),
        Job(["build", "--quadruple", "random", *seed, "--emit", "alg.json"],
            {}, {"alg.json": alg_digest} if alg_digest else {}),
        Job(["recover", "--input", "alg.json", *seed],
            {}, {"report:result": triple_digest} if triple_digest else {}),
        Job(["check", "--what", "quadratic", "--input", "alg.json", *seed],
            {"pass": True}),
    ]


class PipelineDeg1(Workload):
    """One random quadruple through degree, division check, build, recover
    and quadratic check; the quadruple seed is drawn from the pool whose
    algebra and recovered triple were frozen in references.json."""

    name = "pipeline-deg1"
    why = ("exact Fraction linear algebra (division and dissidence trials, eta_P) plus "
           "five process start-ups per item; modkernel is under 1%")

    def jobs(self, seed, index, workdir):
        pool = self.references[self.name]["quadruples"]
        order = random.Random(f"perfbench:{self.name}:{seed}").sample(range(len(pool)), len(pool))
        q = order[index % len(order)]
        return pipeline_jobs(q, *pool[q].split())


WORKLOADS = {w.name: w for w in (LiftDeg3Conj, PipelineDeg1, LiftDeg5)}
