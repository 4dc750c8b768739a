"""The two workloads: their inputs, jobs and reference checks.

``setup(name, seed, root, tmp)`` imports what the workload needs and
builds or parses its inputs; ``jobs(name)`` is the fixed job list.  The
seed only changes generated inputs (the random triangle, the random
algebra elements and the spectral-check seed), never
the shape of the job list.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

from harness import Job

C = 0.5  # the constant term scanned everywhere: c I + double layer

# Only the seed-commit scan misses this zero, which sits midway between two
# default grid points whose neighbours compare equal.
MIDPOINT_DIP_DEFECT = (
    "known defect: invertibility_scan misses the symbol zero of the midpoint-dip kernel "
    "(|c + symbol(0.125)| = 0 between two default grid points) and reports invertible"
)


# ---------------------------------------------------------------------------
# polygon-verdicts: Mellin scans and Nystrom corroboration, in process


def random_triangle(conical, rng):
    """Triangle whose three opening angles are pairwise distinct.

    Angles stay within 0.05 rad of pi/3 so that the scan cost, which
    depends on the angle, varies little from seed to seed.
    """
    while True:
        a, b = (math.pi / 3 + rng.uniform(-0.05, 0.05) for _ in range(2))
        angles = (a, b, math.pi - a - b)
        if min(abs(x - y) for i, x in enumerate(angles) for y in angles[i + 1:]) >= 0.02:
            break
    x = math.tan(b) / (math.tan(a) + math.tan(b))
    return conical.polygon_domain([(0.0, 0.0), (1.0, 0.0), (x, x * math.tan(a))])


def midpoint_dip_kernel(mellin, c=C, width=5.0, lam0=0.125, weight=0.5):
    """Scalar kernel with conjugated form g(u) = -(c / pi w) sech(u / w) e^(i lam0 u).

    Its symbol is -c sech(pi w (lam - lam0) / 2), so c + symbol vanishes
    exactly at lam0, the midpoint of two default grid points.
    """
    scale = c / (math.pi * width)

    def fn(t):
        u = math.log(t)
        return [[-scale / math.cosh(u / width) * complex(math.cos(lam0 * u), math.sin(lam0 * u))
                 * t ** (-weight)]]

    bound = 2.0 * scale
    decay = mellin.KernelDecay(1.0 / width - weight, bound, 1.0 / width + weight, bound)
    return mellin.MellinKernel("dip", 1, fn, decay, "midpoint-dip")


def _check_verdict(verdict, domain):
    if not verdict.is_fredholm:
        return f"verdict not Fredholm (witness {verdict.witness!r})"
    for v in domain.vertices:
        expected = C - abs(math.cos(v.base.opening() / 2.0)) / 2.0
        got = verdict.scans[v.id].min_sigma
        if abs(got - expected) > 1e-6:
            return f"vertex {v.id}: min_sigma {got!r}, closed form {expected!r}"
    return None


def _check_nystrom(trace):
    sig = trace.sigmas()
    if not trace.stabilized(0.10):
        return f"trace not stabilized within 10%: {sig}"
    if min(sig[-2:]) <= 0.05:
        return f"last two sigma_min not above 0.05: {sig[-2:]}"
    return None


def _check_not_invertible(result, state):
    return None if not result.invertible else f"reported invertible, min_sigma {result.min_sigma!r}"


def _setup_polygon(seed, root, tmp):
    import numpy as np

    from gpdlab import conical, mellin, nystrom, specfiles

    corpus = root / "src" / "gpdlab" / "corpus"
    return {
        "mellin": mellin,
        "nystrom": nystrom,
        "domains": {
            "square": specfiles.parse_domain(corpus / "square.json"),
            "random-triangle": random_triangle(conical, np.random.default_rng(seed)),
        },
        "kernels": {
            "forced-zero": mellin.forced_zero_kernel(C),
            "midpoint-dip": midpoint_dip_kernel(mellin),
        },
    }


def _verdict_job(name):
    return Job(
        f"verdict:{name}",
        lambda s: s["mellin"].fredholm_verdict(s["domains"][name], c=C),
        lambda out, s: _check_verdict(out, s["domains"][name]),
    )


def _nystrom_job(name):
    return Job(
        f"nystrom:{name}",
        lambda s: s["nystrom"].nystrom_oracle(s["domains"][name], levels=6),
        lambda out, s: _check_nystrom(out),
    )


def _scan_job(name, known_defect=None):
    def run(s):
        mellin = s["mellin"]
        family = mellin.mellin_transform(s["kernels"][name], 0.5)
        return mellin.invertibility_scan(family, C)

    return Job(f"scan:{name}", run, _check_not_invertible, known_defect)


def _polygon_jobs():
    # The L-shape verdict (two distinct angles over six corners) is left out:
    # it doubled the pass time, and the square and the triangle already cover
    # shared and all-distinct angles.
    shapes = ("square", "random-triangle")
    return ([_verdict_job(n) for n in shapes] + [_nystrom_job(n) for n in shapes]
            + [_scan_job("forced-zero"), _scan_job("midpoint-dip", MIDPOINT_DIP_DEFECT)])


# ---------------------------------------------------------------------------
# toy-groupoids: exact combinatorics on finite toy layer groupoids, in process

# (cyclic order m, interior sample points): 1761 and 2105 arrows for the
# square, on either side of the 2048-arrow dense/sparse split in validate.
TOY_SIZES = ((5, 1), (5, 5))
CRITERION_ELEMENTS = 3
SPECTRAL_TRIALS = 100


def _toy_expect(desc, m, ip):
    ks = desc.component_counts()
    interior = ip + m * sum(ks)
    return {
        "arrows": interior * interior + m * sum(k * k for k in ks),
        "interior": interior,
        "orbits": sorted([interior] + list(ks)),
        "isotropy": sorted([1] + [m] * len(ks)),
        "parts": tuple(ks),
    }


def _setup_toy(seed, root, tmp):
    import numpy as np

    from gpdlab import algebra, conical, fredholm, groupoid, specfiles

    desc = conical.assemble_layer_groupoid(
        specfiles.parse_domain(root / "src" / "gpdlab" / "corpus" / "square.json"))
    return {
        "conical": conical, "specfiles": specfiles, "groupoid": groupoid,
        "fredholm": fredholm, "algebra": algebra,
        "desc": desc,
        "expect": {(m, ip): _toy_expect(desc, m, ip) for m, ip in TOY_SIZES},
        "rng": np.random.default_rng([seed, 1]),
        "spectral_seed": seed,
        "tmp": tmp,
    }


def _eq(what, got, expected):
    return None if got == expected else f"{what}: got {got!r}, expected {expected!r}"


def _first(*errors):
    return next((e for e in errors if e is not None), None)


def _blocks_invertible(algebra, a, reps):
    return all(algebra.matrix_invertible(algebra.regular_rep(a, x).matrix) for x in reps)


def _toy_jobs():
    jobs = []
    for m, ip in TOY_SIZES:
        key, tag = (m, ip), f"m{m}i{ip}"
        path_key = f"spec-{tag}.json"

        def build(s, m=m, ip=ip):
            s["model"] = s["conical"].finite_toy_model(s["desc"], m, interior_points=ip)
            return s["model"]

        def write(s, path_key=path_key):
            sp = s["specfiles"]
            return sp.dump(sp.groupoid_to_dict(s["model"].groupoid), s["tmp"] / path_key)

        def parse(s, path_key=path_key):
            s["g"] = s["specfiles"].parse_groupoid(s["tmp"] / path_key)
            return s["g"]

        def orbits(s):
            s["orbits"] = s["groupoid"].orbits_and_isotropy(s["g"], check=True)
            return s["orbits"]

        # Like the CLI subcommands, each check designates its own structure.
        def fredholm_check(s):
            s["structure"] = s["fredholm"].make_structure(s["g"], list(s["model"].interior_units))
            s["element"] = s["algebra"].random_element(s["g"], s["rng"])
            return s["fredholm"].fredholm_criterion(s["structure"], s["element"])

        def check_criterion(v, s):
            alg, st = s["algebra"], s["structure"]
            af, _ = alg.restrict_boundary(s["element"], st.boundary, n_samples=0)
            expected = alg.invertible(alg.AlgebraElement.unit(af.groupoid) + af, method="blocks")
            return _first(_eq("interior", len(st.interior), len(s["model"].interior_units)),
                          _eq("boundary orbits", len(st.boundary_representatives),
                              len(s["desc"].component_counts())),
                          _eq("equivalence_holds", v.equivalence_holds, True),
                          _eq("is_fredholm vs boundary blocks", v.is_fredholm, expected))

        def spectral_check(s):
            s["structure"] = s["fredholm"].make_structure(s["g"], list(s["model"].interior_units))
            return s["fredholm"].strictly_spectral_check(s["structure"], SPECTRAL_TRIALS,
                                                          s["spectral_seed"])

        def norms(s):
            a, alg = s["element"], s["algebra"]
            blocks = alg.block_decompose(a.groupoid)
            return alg.l1_norm(a), alg.reduced_norm(a), alg.invertible(a, method="blocks"), blocks

        def check_norms(out, s):
            l1, rnorm, inv, blocks = out
            if not 0.0 < rnorm <= l1 * (1 + 1e-9):
                return f"reduced norm {rnorm!r} outside (0, l1 norm {l1!r}]"
            return _first(_eq("blocks", len(blocks.blocks), len(s["orbits"].orbits)),
                          _eq("invertible vs regular reps", inv, _blocks_invertible(
                              s["algebra"], s["element"], s["orbits"].representatives)))

        def check_orbits(p, s, key=key):
            e = s["expect"][key]
            return _first(_eq("orbit sizes", sorted(len(o) for o in p.orbits), e["orbits"]),
                          _eq("isotropy orders", sorted(t.order for t in p.isotropy), e["isotropy"]))

        def check_recognition(r, s, key=key, m=m):
            return _first(_eq("verified", r.verified, True),
                          _eq("part sizes", r.part_sizes, s["expect"][key]["parts"]),
                          _eq("fiber orders", {f.order for f in r.fibers}, {m}))

        jobs += [
            Job(f"build:{tag}", build, lambda t, s, key=key: _first(
                _eq("arrows", t.groupoid.n_arrows, s["expect"][key]["arrows"]),
                _eq("interior units", len(t.interior_units), s["expect"][key]["interior"]))),
            Job(f"write:{tag}", write, lambda text, s, path_key=path_key: _eq(
                "bytes on disk", os.path.getsize(s["tmp"] / path_key), len(text.encode("utf-8")))),
            Job(f"parse:{tag}", parse, lambda g, s: _first(
                _eq("arrows", g.n_arrows, s["model"].groupoid.n_arrows),
                _eq("units", g.n_units, s["model"].groupoid.n_units),
                _eq("compose entries", len(g.compose), len(s["model"].groupoid.compose)))),
            Job(f"orbits:{tag}", orbits, check_orbits),
        ]
        jobs += [Job(f"fredholm-check:{tag}:{i}", fredholm_check, check_criterion)
                 for i in range(CRITERION_ELEMENTS)]
        jobs += [
            Job(f"spectral-check:{tag}", spectral_check,
                lambda r, s: _first(_eq("counterexamples", r.counterexamples, []),
                                    _eq("trials", r.trials, SPECTRAL_TRIALS))),
            Job(f"norms:{tag}", norms, check_norms),
            Job(f"recognize:{tag}", lambda s: s["fredholm"].recognize_boundary_bundle(
                s["structure"]), check_recognition),
        ]
    return jobs


# ---------------------------------------------------------------------------

WORKLOADS = {
    "polygon-verdicts": (_setup_polygon, _polygon_jobs),
    "toy-groupoids": (_setup_toy, _toy_jobs),
}


def setup(name: str, seed: int, root: Path, tmp: Path) -> dict:
    return WORKLOADS[name][0](seed, root, tmp)


def jobs(name: str) -> list[Job]:
    return WORKLOADS[name][1]()
