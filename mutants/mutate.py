#!/usr/bin/env python3
"""Mutant runner: each recorded mutant of the package must be killed.

    python3 mutants/mutate.py

Run from a checkout of the repository. The mutants are the records of
catalog.py. Each record gives a file, the exact old text (found exactly
once in that file), the new text, and the tests that must fail once the
old text is replaced by the new. The runner copies ``src``, ``tests`` and
``pyproject.toml`` into a temporary directory once, first runs every
named test there unmutated (each must pass), then applies the mutants one
at a time and runs their tests. A mutant that stops pytest from running
the tests at all (a module that no longer imports, say) counts as killed.

It prints one line per mutant and exits 1 when a mutant survives (one of
its tests passes), when its old text no longer matches its file exactly
once, or when a named test fails or is not found unmutated; else 0. So a
change that rewrites the mutated code must carry its mutants along.
``python3 -m pytest -q mutants -k NAME`` runs one mutant by name.
Standard library only.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from catalog import MUTANTS

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")


def copy_tree(dest):
    """Copy what the tests need from the checkout into dest."""
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns(
                "__pycache__", ".pytest_cache", ".hypothesis"))
        else:
            shutil.copy2(src, dest / name)


def mutated(text, mutant):
    """text with the mutant applied; ValueError unless its old text occurs
    exactly once."""
    found = text.count(mutant["old"])
    if found != 1:
        raise ValueError(f"old text found {found} times in {mutant['file']}")
    return text.replace(mutant["old"], mutant["new"])


def failed_tests(tree, tests):
    """Run the tests in tree; the node ids pytest reports failed or in
    error, and its exit code."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p",
         "no:cacheprovider", *tests],
        cwd=tree, env=env, capture_output=True, text=True, timeout=600)
    failed = set()
    for line in proc.stdout.splitlines():
        kind, _, rest = line.partition(" ")
        if kind in ("FAILED", "ERROR"):
            failed.add(rest.split(" - ")[0])
    return failed, proc.returncode


def check_clean(tree, mutants):
    """None when every named test passes in the unmutated tree, else a
    line saying which did not."""
    tests = sorted({t for m in mutants for t in m["tests"]})
    failed, code = failed_tests(tree, tests)
    if code:
        return f"unmutated: pytest exit {code}, failed {sorted(failed)}"
    return None


def run_mutant(tree, mutant):
    """'killed', or a line saying why the mutant counts against the
    suite. The file is restored afterwards."""
    path = tree / mutant["file"]
    text = path.read_text(encoding="utf-8")
    try:
        new = mutated(text, mutant)
    except ValueError as exc:
        return f"stale: {exc}"
    path.write_text(new, encoding="utf-8")
    try:
        failed, code = failed_tests(tree, mutant["tests"])
    finally:
        path.write_text(text, encoding="utf-8")
    if code not in (0, 1):
        # pytest ran none of the tests: collection broke on the mutant
        return "killed"
    alive = [t for t in mutant["tests"] if t not in failed]
    return "killed" if not alive else f"survived: {' '.join(alive)} passed"


def main():
    bad = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        problem = check_clean(tree, MUTANTS)
        if problem:
            print(problem)
            bad += 1
        for m in MUTANTS:
            outcome = run_mutant(tree, m)
            print(f"{m['name']}: {outcome}")
            bad += outcome != "killed"
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
