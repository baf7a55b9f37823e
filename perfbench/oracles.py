"""Output oracles that do not come from the code under test.

Every check here is computed from the benchmark's own inputs and closed
forms: hom counts C(n,p) * nu^(n-p), the partition identity between fibred
carriers and indexed fibres, an independent face-identity check on fibred
output, and the verdicts the negative inputs must get. Each check returns
a list of problems; an empty list means the output is correct.
"""

import json
import math
from itertools import product

STAR = -1


# ------------------------------------------------------------ words

def letter(nu, a):
    """Letter text in the CLI's word syntax: ``*``, ``0``, ``L``/``R``,
    or a decimal digit for nu >= 3."""
    if a == STAR:
        return "*"
    if nu == 1:
        return "0"
    if nu == 2:
        return "LR"[a]
    return str(a)


def word_text(nu, w):
    return "".join(letter(nu, a) for a in w)


def words(nu, p, n):
    """Hom(p, n): length-n words with p stars, star before every
    direction in the lexicographic order."""
    return [w for w in product((STAR,) + tuple(range(nu)), repeat=n)
            if w.count(STAR) == p]


def compose(g, f):
    """g . f: the stars of g consume the letters of f in order."""
    it = iter(f)
    return tuple(next(it) if a == STAR else a for a in g)


def hom_count(nu, p, n):
    return math.comb(n, p) * nu ** (n - p)


# ------------------------------------------------------------ documents

def parse_json(text, problems):
    try:
        return json.loads(text)
    except ValueError as exc:
        problems.append(f"output is not JSON: {exc}")
        return None


def carrier_size(entry):
    return len(entry) if isinstance(entry, list) else entry


def fibre_cells(doc):
    """Per dimension, the summed fibre sizes of an indexed document."""
    return [sum(carrier_size(e) for e in doc["families"][str(n)].values())
            for n in range(doc["trunc"] + 1)]


def fibre_labels(doc, n):
    """Sorted labels over all fibres at dimension n, or None when some
    fibre carries sizes only."""
    labels = []
    for entry in doc["families"][str(n)].values():
        if not isinstance(entry, list):
            return None
        labels.extend(entry)
    return sorted(labels)


def face_law_problems(doc):
    """Every two-letter word's two factorizations act alike: the face
    identities of a fibred document, checked without the package."""
    nu, problems = doc["nu"], []
    faces = doc["faces"]
    sizes = [carrier_size(c) for c in doc["carriers"]]
    for n in range(1, doc["trunc"] + 1):
        expected = {word_text(nu, w) for w in words(nu, n - 1, n)}
        block = faces.get(str(n), {})
        if set(block) != expected:
            return [f"faces at dimension {n} are not the codimension-1 words"]
        for arr in block.values():
            if len(arr) != sizes[n] or any(
                    not 0 <= y < sizes[n - 1] for y in arr):
                return [f"a face map at dimension {n} is out of range"]
    for n in range(2, doc["trunc"] + 1):
        for f in words(nu, n - 2, n):
            routes = []
            for j, a in enumerate(f):
                if a == STAR:
                    continue
                head = (STAR,) * j + (a,) + (STAR,) * (n - 1 - j)
                rest = f[:j] + f[j + 1:]
                top = faces[str(n)][word_text(nu, head)]
                bottom = faces[str(n - 1)][word_text(nu, rest)]
                routes.append([bottom[top[x]] for x in range(sizes[n])])
            if any(r != routes[0] for r in routes[1:]):
                problems.append(f"face identity fails for {word_text(nu, f)}")
    return problems


# ------------------------------------------------------------ checks

def report_ok(stdout, stderr):
    problems = []
    rep = parse_json(stdout, problems)
    if rep is not None and (rep.get("ok") is not True or rep["violations"]):
        problems.append(f"report is not clean: {rep.get('violations')!r:.200}")
    return problems


def fibred_of_indexed(src):
    """indexed -> fibred: carriers partition back into the fibres."""
    def check(stdout, stderr):
        problems = []
        out = parse_json(stdout, problems)
        if out is None:
            return problems
        if (out.get("nu"), out.get("trunc")) != (src["nu"], src["trunc"]):
            return ["nu or trunc changed"]
        sizes = [carrier_size(c) for c in out["carriers"]]
        if sizes != fibre_cells(src):
            problems.append(f"carrier sizes {sizes} != fibre sums "
                            f"{fibre_cells(src)}")
        for n, entry in enumerate(out["carriers"]):
            want = fibre_labels(src, n)
            if want is not None and sorted(entry) != want:
                problems.append(f"labels at dimension {n} differ")
        return problems + face_law_problems(out)
    return check


def indexed_of_fibred(src):
    """fibred -> indexed: fibres partition the input's carriers."""
    def check(stdout, stderr):
        problems = []
        out = parse_json(stdout, problems)
        if out is None:
            return problems
        if (out.get("nu"), out.get("trunc")) != (src["nu"], src["trunc"]):
            return ["nu or trunc changed"]
        want = [carrier_size(c) for c in src["carriers"]]
        if fibre_cells(out) != want:
            problems.append(f"fibre sums {fibre_cells(out)} != carrier "
                            f"sizes {want}")
        for n, entry in enumerate(src["carriers"]):
            if isinstance(entry, list) and fibre_labels(out, n) != sorted(
                    entry):
                problems.append(f"labels at dimension {n} differ")
        return problems
    return check


def indexed_round_trip(src):
    """The round trip names one identity bijection per non-empty fibre."""
    want = {f"{n}:{key}": list(range(carrier_size(entry)))
            for n in range(src["trunc"] + 1)
            for key, entry in src["families"][str(n)].items()
            if carrier_size(entry)}

    def check(stdout, stderr):
        problems = report_ok(stdout, stderr)
        if not problems:
            got = json.loads(stdout)["data"].get("fibre_bijections")
            if got != want:
                problems.append("fibre bijections differ from the input's "
                                "non-empty fibres")
        return problems
    return check


def missing_fibre(n, key):
    """Validation of a file with fibre (n, key) removed names it."""
    def check(stdout, stderr):
        problems = []
        rep = parse_json(stdout, problems)
        if rep is None:
            return problems
        if rep.get("ok") is not False:
            return ["a file with a fibre removed validated clean"]
        hit = any(v.get("kind") == "missing-fibre" and v.get("dimension") == n
                  and v.get("frame") == key for v in rep["violations"])
        return [] if hit else [f"missing fibre {key} at {n} not reported"]
    return check


def malformed_json(stdout, stderr):
    if not stderr.startswith("error: not valid JSON"):
        return [f"malformed input not reported as such: {stderr!r:.200}"]
    return []


def singleton_extension(base, levels, points):
    """Extending the coskeletal base: lower levels unchanged, then one
    cell over each of points^(nu^n) frames at every new level n."""
    def check(stdout, stderr):
        problems = []
        out = parse_json(stdout, problems)
        if out is None:
            return problems
        if out.get("trunc") != base["trunc"] + levels:
            return [f"trunc {out.get('trunc')} after extending by {levels}"]
        for n in range(base["trunc"] + 1):
            if out["families"][str(n)] != base["families"][str(n)]:
                problems.append(f"level {n} of the base changed")
        for n in range(base["trunc"] + 1, out["trunc"] + 1):
            fam = out["families"][str(n)]
            if len(fam) != points ** (base["nu"] ** n):
                problems.append(f"{len(fam)} frames at level {n}")
            if any(v != 1 for v in fam.values()):
                problems.append(f"a fibre at level {n} is not a singleton")
        return problems
    return check


def standard_shape(nu, n):
    """Carrier p of the standard n-shape has |Hom(p, n)| cells."""
    sizes = [hom_count(nu, p, n) for p in range(n + 1)]

    def check(stdout, stderr):
        problems = []
        out = parse_json(stdout, problems)
        if out is None:
            return problems
        if out.get("carriers") != sizes:
            problems.append(f"carriers {out.get('carriers')} != {sizes}")
        if out.get("inventory") != (sizes[1:] if nu == 1 else sizes):
            problems.append("inventory does not follow the carriers")
        if not str(out.get("dot", "")).startswith("graph nuset {"):
            problems.append("no DOT text")
        return problems
    return check


def telescope_counts(nu, n):
    """Telescope X_n has |Hom(p, n)| hypotheses over X_p."""
    want = {str(p): hom_count(nu, p, n) for p in range(n)}

    def check(stdout, stderr):
        problems = []
        out = parse_json(stdout, problems)
        if out is not None and out.get("stats") != want:
            problems.append(f"hypothesis counts {out.get('stats')} != {want}")
        return problems
    return check
