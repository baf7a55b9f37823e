"""Fixtures and operations of the benchmark's workloads.

A workload function receives a Context, writes its fixture files from the
seed, and registers the operations one pass runs. The seed changes input
contents only (carrier order of fibred inputs, fibre sizes at the top
dimension of the seeded instance, names of bound variables, which fibre a
negative input lacks, point labels), never fixture size. Standard shapes
are generated here, independently of the package; indexed fixtures and
printed telescopes are obtained through the CLI, which is part of set-up.
"""

import copy
import json
import random
import re
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable

import oracles


class SetupError(Exception):
    """A CLI call made while building fixtures failed."""


@dataclass
class Op:
    """One timed CLI invocation and how to judge its output."""

    id: str
    metric: str
    args: list
    check: Callable
    expect_rc: int = 0
    seed_invariant: bool = True   # output bytes do not depend on the seed


def dump(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class Context:
    """Fixture directory, seeded RNG, set-up CLI runner and the ops."""

    def __init__(self, work, seed, cli):
        self.work = Path(work)
        self.work.mkdir(parents=True, exist_ok=True)
        self.rng = random.Random(seed)
        self.cli = cli
        self.ops = []
        self.fixtures = {}

    def write(self, name, text):
        path = self.work / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def op(self, id_, metric, args, check, **kw):
        self.ops.append(Op(id_, metric, [str(a) for a in args], check, **kw))

    def record_indexed(self, name, doc):
        self.fixtures[name] = {
            "cells": oracles.fibre_cells(doc),
            "frames": [len(doc["families"][str(n)])
                       for n in range(doc["trunc"] + 1)]}

    def record_fibred(self, name, doc):
        self.fixtures[name] = {
            "cells": [oracles.carrier_size(c) for c in doc["carriers"]]}


# ------------------------------------------------------------ fixtures

def standard_shape(nu, n):
    """The fibred standard n-shape: carrier p lists Hom(p, n), labelled
    by word text; the face along w sends g to g . w."""
    levels = [oracles.words(nu, p, n) for p in range(n + 1)]
    index = [{w: i for i, w in enumerate(ws)} for ws in levels]
    faces = {}
    for m in range(1, n + 1):
        faces[str(m)] = {
            oracles.word_text(nu, w): [index[m - 1][oracles.compose(g, w)]
                                       for g in levels[m]]
            for w in oracles.words(nu, m - 1, m)}
    carriers = [[oracles.word_text(nu, g) for g in ws] for ws in levels]
    return {"nu": nu, "trunc": n, "carriers": carriers, "faces": faces}


def permute(doc, rng):
    """The same fibred structure with every carrier reordered."""
    perms = []
    for entry in doc["carriers"]:
        p = list(range(oracles.carrier_size(entry)))
        rng.shuffle(p)
        perms.append(p)
    carriers = []
    for entry, p in zip(doc["carriers"], perms):
        if isinstance(entry, list):
            moved = [None] * len(entry)
            for x, label in enumerate(entry):
                moved[p[x]] = label
            entry = moved
        carriers.append(entry)
    faces = {}
    for n, block in doc["faces"].items():
        m = int(n)
        faces[n] = {}
        for w, arr in block.items():
            moved = [None] * len(arr)
            for x, y in enumerate(arr):
                moved[perms[m][x]] = perms[m - 1][y]
            faces[n][w] = moved
    return dict(doc, carriers=carriers, faces=faces)


def coskeleton(nu, points, labels=None):
    """Indexed base at truncation 1: ``points`` points and one edge over
    every tuple of nu endpoints."""
    edges = {"([" + " ".join(f"{{{a}}}" for a in ends) + "])": 1
             for ends in product(range(points), repeat=nu)}
    return {"nu": nu, "trunc": 1,
            "families": {"0": {"()": labels or points}, "1": edges}}


def standard_indexed(ctx, name, nu, n):
    """The standard n-shape in indexed form, converted by the CLI."""
    fibred = standard_shape(nu, n)
    path = ctx.write(f"{name}.fibred.json", dump(fibred))
    doc = json.loads(ctx.cli(["convert", path]))
    ctx.record_indexed(name, doc)
    return doc


# Ten of the sixteen squares over two points, picked once by this fixed
# seed, leave 23 hollow 3-cubes to fill at the top of the seeded instance.
SQUARES_SEED, SQUARES = 100, 10
TOP_SIZES = [2] * 4 + [1] * 8


def seeded_cube3(ctx, name):
    """nu=2, trunc 3: a fixed 2-skeleton, and 16 cells spread over its
    top frames by the seed."""
    t2 = json.loads(ctx.cli(["extend", "--levels", "1", ctx.write(
        f"{name}.t1.json", dump(coskeleton(2, 2)))]))
    keys = sorted(t2["families"]["2"])
    chosen = set(random.Random(SQUARES_SEED).sample(keys, SQUARES))
    t2["families"]["2"] = {k: int(k in chosen) for k in keys}
    t3 = json.loads(ctx.cli(["extend", "--levels", "1", ctx.write(
        f"{name}.t2.json", dump(t2))]))
    top = sorted(t3["families"]["3"])
    if len(top) < len(TOP_SIZES):
        raise SetupError(f"only {len(top)} top frames in {name}")
    sizes = TOP_SIZES + [0] * (len(top) - len(TOP_SIZES))
    ctx.rng.shuffle(sizes)
    t3["families"]["3"] = dict(zip(top, sizes))
    ctx.record_indexed(name, t3)
    return t3


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def rename_binders(text, rng):
    """Rename every bound variable of a printed type, injectively and
    to names of one length, with a seeded assignment."""
    bound = sorted(set(re.findall(r"\bPi ([A-Za-z_]\w*)\s*:", text)))
    fresh = [f"v{i:03d}" for i in range(len(bound))]
    rng.shuffle(fresh)
    mapping = dict(zip(bound, fresh))
    return _IDENT.sub(lambda m: mapping.get(m.group(0), m.group(0)), text)


# ------------------------------------------------------------ operations

def indexed_checks(ctx, name, doc, invariant):
    """validate and coh-check on an indexed file."""
    path = ctx.write(f"{name}.indexed.json", dump(doc))
    kw = {"seed_invariant": invariant}
    ctx.op(f"validate:{name}", "validate_s", ["validate", "--json", path],
           oracles.report_ok, **kw)
    ctx.op(f"coh-check:{name}", "coh_check_s",
           ["coh-check", "--json", path], oracles.report_ok, **kw)


def indexed_conversions(ctx, name, doc, invariant):
    """convert (indexed -> fibred) and roundtrip on an indexed file."""
    path = ctx.write(f"{name}.indexed.json", dump(doc))
    kw = {"seed_invariant": invariant}
    ctx.op(f"to-fibred:{name}", "to_fibred_s", ["convert", path],
           oracles.fibred_of_indexed(doc), **kw)
    ctx.op(f"roundtrip:{name}", "roundtrip_s",
           ["roundtrip", "--json", path], oracles.indexed_round_trip(doc),
           **kw)


def negatives(ctx, name, doc):
    """A file with one seed-chosen fibre at dimension 2 removed (exit 1)
    and the file cut short at a seed-chosen byte (exit 2)."""
    key = ctx.rng.choice(sorted(doc["families"]["2"]))
    broken = copy.deepcopy(doc)
    del broken["families"]["2"][key]
    path = ctx.write(f"{name}.missing.json", dump(broken))
    ctx.op(f"validate-missing:{name}", "validate_s",
           ["validate", "--json", path], oracles.missing_fibre(2, key),
           expect_rc=1, seed_invariant=False)
    text = dump(doc)
    cut = ctx.rng.randrange(len(text) // 4, 3 * len(text) // 4)
    path = ctx.write(f"{name}.truncated.json", text[:cut])
    ctx.op(f"validate-truncated:{name}", "validate_s", ["validate", path],
           oracles.malformed_json, expect_rc=2, seed_invariant=False)


def fibred_ops(ctx, name, nu, n):
    """convert (fibred -> indexed) and validate on a permuted shape."""
    doc = permute(standard_shape(nu, n), ctx.rng)
    ctx.record_fibred(name, doc)
    path = ctx.write(f"{name}.fibred.json", dump(doc))
    ctx.op(f"to-indexed:{name}", "to_indexed_s", ["convert", path],
           oracles.indexed_of_fibred(doc), seed_invariant=False)
    ctx.op(f"validate:{name}", "validate_s", ["validate", "--json", path],
           oracles.report_ok)


def extend_op(ctx, name, nu, levels):
    labels = [f"p{i:06d}" for i in ctx.rng.sample(range(10 ** 6), 2)]
    base = coskeleton(nu, 2, labels)
    ctx.record_indexed(name, base)
    path = ctx.write(f"{name}.base.json", dump(base))
    ctx.op(f"extend:{name}", "extend_s",
           ["extend", "--levels", levels, path],
           oracles.singleton_extension(base, levels, 2),
           seed_invariant=False)


def shape_op(ctx, nu, n):
    ctx.op(f"shape:{nu}:{n}", "shape_s",
           ["shape", "--nu", nu, "-n", n, "--json", "--dot"],
           oracles.standard_shape(nu, n))


def param_steps_op(ctx, nu, n):
    ctx.op(f"param:{nu}:{n}", "param_steps_s",
           ["param", "--nu", nu, "-n", n, "--json"],
           oracles.telescope_counts(nu, n))


def param_file_op(ctx, nu, n):
    printed = json.loads(ctx.cli(
        ["param", "--nu", str(nu), "-n", str(n), "--json"]))["telescope"]
    name = f"telescope{nu}{n}"
    ctx.fixtures[name] = {"binders": printed.count("Pi ") +
                          printed.count("->")}
    path = ctx.write(f"{name}.txt", rename_binders(printed, ctx.rng) + "\n")
    ctx.op(f"param-file:{nu}:{n}", "param_file_s", ["param", "--json", path],
           oracles.telescope_counts(nu, n), seed_invariant=False)


# ------------------------------------------------------------ workloads

def indexed_inputs(ctx):
    """(name, indexed doc, seed-invariant) of the four indexed inputs."""
    return [
        ("cube3", standard_indexed(ctx, "cube3", 2, 3), True),
        ("simplex5", standard_indexed(ctx, "simplex5", 1, 5), True),
        ("ternary2", standard_indexed(ctx, "ternary2", 3, 2), True),
        ("seeded3", seeded_cube3(ctx, "seeded3"), False),
    ]


def sweep(ctx):
    inputs = indexed_inputs(ctx)
    for name, doc, invariant in inputs:
        indexed_checks(ctx, name, doc, invariant)
    negatives(ctx, "cube3", inputs[0][1])


def convert(ctx):
    for name, doc, invariant in indexed_inputs(ctx):
        indexed_conversions(ctx, name, doc, invariant)


def build(ctx):
    for name, nu, n in (("cube4", 2, 4), ("simplex6", 1, 6),
                        ("cube3", 2, 3), ("ternary2", 3, 2)):
        fibred_ops(ctx, name, nu, n)


def extend(ctx):
    extend_op(ctx, "binary-points", 2, 2)
    extend_op(ctx, "ternary-points", 3, 1)
    shape_op(ctx, 2, 8)
    shape_op(ctx, 1, 12)


def telescope(ctx):
    for nu, n in ((2, 4), (1, 7), (3, 3)):
        param_steps_op(ctx, nu, n)
    for nu, n in ((2, 4), (3, 3), (1, 7)):
        param_file_op(ctx, nu, n)


def tiny(ctx):
    """Every operation kind on the nu=2 square; used by the self-check."""
    square = standard_indexed(ctx, "square", 2, 2)
    indexed_checks(ctx, "square", square, True)
    indexed_conversions(ctx, "square", square, True)
    negatives(ctx, "square", square)
    fibred_ops(ctx, "square-fibred", 2, 2)
    extend_op(ctx, "binary-points", 2, 1)
    shape_op(ctx, 2, 2)
    param_steps_op(ctx, 2, 2)
    param_file_op(ctx, 2, 2)


WORKLOADS = {"sweep": sweep, "convert": convert, "build": build,
             "extend": extend, "telescope": telescope, "tiny": tiny}
