"""
Command line access
===================

Every capability is reachable as a subcommand of ``nusets``. This script
drives the same main() in process; on a real shell remember that words
contain ``*`` and need quoting. Exit codes: 0 clean, 1 a law or validation
finding, 2 malformed input or usage.
"""

import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from nusets.cli import main
from nusets.equivalence import to_indexed
from nusets.indexedfile import emit_indexed
from nusets.presheaf import emit_nuset
from nusets.shapes import standard_shape


def run(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


# enumerate a hom set and compose two words
code, out = run("hom", "--nu", "2", "-p", "1", "-n", "2")
print("$ nusets hom --nu 2 -p 1 -n 2")
print(out, "exit:", code)

code, out = run("compose", "--nu", "2", "**L", "LR")
print("$ nusets compose --nu 2 '**L' 'LR'")
print(out, "exit:", code)

# a standard shape as DOT (first lines only here)
code, out = run("shape", "--nu", "2", "-n", "2", "--dot")
print("$ nusets shape --nu 2 -n 2 --dot")
print("\n".join(out.splitlines()[:3]), "...")

# validation on files, in either format
work = Path(tempfile.mkdtemp())
square = standard_shape(2, 2)
fibred = work / "square.fibred.json"
fibred.write_text(emit_nuset(square))
indexed = work / "square.indexed.json"
indexed.write_text(emit_indexed(to_indexed(square)))
for path in (fibred, indexed):
    code, out = run("validate", str(path))
    print(f"$ nusets validate {path.name}")
    print(out, "exit:", code)

# a document with a fibre removed exits 1 and names the hole
doc = json.loads(indexed.read_text())
doc["families"]["1"].popitem()
broken = work / "broken.json"
broken.write_text(json.dumps(doc))
code, out = run("validate", str(broken), "--json")
report = json.loads(out)
print(f"$ nusets validate {broken.name} --json")
print("exit:", code, "first violation:", report["violations"][0]["kind"])

# iterated translation with hypothesis counts
code, out = run("param", "--nu", "2", "--steps", "2", "--json")
print("$ nusets param --nu 2 --steps 2 --json")
print("stats:", json.loads(out)["stats"], "exit:", code)

# singleton extension of a stored truncation
code, out = run("extend", str(indexed), "--levels", "1")
extended = json.loads(out)
print(f"$ nusets extend {indexed.name} --levels 1")
print("dimensions now:", sorted(extended["families"]), "exit:", code)

# equivalence round trip on a seeded random set
code, out = run("roundtrip", "--nu", "2", "-n", "2", "--seed", "7")
print("$ nusets roundtrip --nu 2 -n 2 --seed 7")
print(out, "exit:", code)
