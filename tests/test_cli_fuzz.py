"""A seeded mutation sweep over the corpus: every malformed field is refused
by its path.

Each case takes one corpus file read by one subcommand, deletes one value
of it (a leaf, or a whole array or object) or sets that value to one of
``BAD_VALUES``, writes the result under the test's directory and runs the
subcommand on it in process.  Every case must exit 0, 1 or 2 without an
exception other than ``SystemExit``.  On exit 2 stdout is empty and
stderr is one ``error:`` line that names the file and a field path in it
(``<file>.<field>`` or ``<file>[...]``), unless the message is one of
``SEMANTIC``: refusals of a law that binds several fields together, each
with its reason.  The 2000 cases take about 4 s.
"""

import json
import math
import random
import re
from importlib import resources

from click.testing import CliRunner

from gpdlab.cli import main

SEED = 5
CASES = 2000

# the argv of each job; one of its corpus files is mutated per case
JOBS = [
    ["validate", "--groupoid", "pair3.json"],
    ["validate", "--groupoid", "z2_one_object.json"],
    ["orbits", "--groupoid", "toy_layer.json"],
    ["norms", "--groupoid", "pair3.json", "--element", "element_pair3.json"],
    ["fredholm-check", "--groupoid", "pair3.json", "--seed", "1"],
    ["spectral-check", "--groupoid", "toy_layer.json", "--trials", "3", "--seed", "1"],
    ["glue", "--atlas", "atlas_three_piece.json"],
    ["glue", "--atlas", "bad_atlas.json"],
    ["layer-report", "--domain", "cone3d.json"],
    ["layer-report", "--domain", "pentagon.json"],
    ["mellin-scan", "--domain", "square.json"],
    ["mellin-scan", "--domain", "lshape.json"],
    ["nystrom-verify", "--domain", "square.json", "--levels", "2"],
]

BAD_VALUES = [None, -1, 0, 1e308, math.nan, "x", [], {}, True, 3.5, -0.0, "v0", [0, 1], 10 ** 30]

# messages, after "error: ", that may name no field, with the reason each may
SEMANTIC = {
    r".+: groupoid axioms violated: [\w-]+ at witness .+":
        "the axioms bind the tables together; the witness names the arrows",
    r".+: piece \d+: .+": "a law of one piece's embedding; the line names the piece by its index",
    r".+: pieces do not cover the ambient unit set": "a law of all the pieces together",
    r".+: pieces \d+,\d+: .+": "a law of two pieces' overlap; the line names both pieces",
    r".+: phi\(\d+,\d+\) .+": "a law of one phi over its whole map; the line names its two pieces",
    r".+: cocycle violated at arrow .+": "a law of three phis together; the line names the arrow",
    r"weak gluing condition fails at composable pair .+": "a verdict of the glued result",
    r"[^:]+: file does not exist": "a piece's groupoid path names no file; the line names that path",
    r"no trivial-isotropy orbit to use as the interior": "a fact about the groupoid's orbits",
    r"designated interior is not invariant": "a fact about the groupoid's orbits",
}


def corpus(name: str) -> str:
    return str(resources.files("gpdlab") / "corpus" / name)


def fields(doc, path=()) -> list:
    """The path of every value below ``doc``, containers too, in document order."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return []
    return [p for key, value in items for p in [path + (key,), *fields(value, path + (key,))]]


def mutated(doc, path, value, delete: bool):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def spec_files(job: list) -> list:
    return [a for a in job if a.endswith(".json")]


def cases():
    rng = random.Random(SEED)
    docs = {}
    for name in {a for job in JOBS for a in spec_files(job)}:
        with open(corpus(name), encoding="utf-8") as fh:
            docs[name] = json.load(fh)
    paths = {name: fields(doc) for name, doc in docs.items()}
    for k in range(CASES):
        job = JOBS[k % len(JOBS)]
        name = rng.choice(spec_files(job))
        path = rng.choice(paths[name])
        choice = rng.randrange(len(BAD_VALUES) + 1)
        delete = choice == len(BAD_VALUES)
        yield job, name, path, mutated(docs[name], path, None if delete else BAD_VALUES[choice], delete)


def names_a_field(line: str, files) -> bool:
    return any(line.startswith(f"error: {f}.") or line.startswith(f"error: {f}[") for f in files)


def test_every_malformed_field_is_refused_by_its_path(tmp_path):
    runner = CliRunner()
    semantic = [re.compile(p) for p in SEMANTIC]
    faults, codes = [], {0: 0, 1: 0, 2: 0}
    for job, name, path, doc in cases():
        files = {a: corpus(a) for a in spec_files(job)}
        files[name] = str(tmp_path / name)
        with open(files[name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        res = runner.invoke(main, [files.get(a, a) for a in job])
        case = (job[0], name, path)
        if res.exception is not None and not isinstance(res.exception, SystemExit):
            faults.append((case, repr(res.exception)))
            continue
        if res.exit_code not in codes:
            faults.append((case, res.exit_code))
            continue
        codes[res.exit_code] += 1
        if res.exit_code != 2:
            continue
        lines = res.stderr.splitlines()
        if res.stdout or len(lines) != 1 or not lines[0].startswith("error: "):
            faults.append((case, res.stdout, res.stderr))
        elif not (names_a_field(lines[0], files.values())
                  or any(p.fullmatch(lines[0][len("error: "):]) for p in semantic)):
            faults.append((case, lines[0]))
    assert faults == []
    assert min(codes.values()) > 0  # the sweep reaches every exit code
