"""Seeded job generator for the three benchmark workloads.

A run is a sequence of blocks.  Every block of a workload holds the same
job classes in the same counts, shuffled by the seed, so the percentiles of
a run land inside a class rather than on the edge between two classes and
do not depend on which seed the run was given.  The seed draws everything
that does not change a job's cost class: the order of the jobs, pole
parameters, time grids and coefficient values.  The residue workload is the
exception for pole parameters: the pole and the roots of the test functions
set how hard the quadrature works, so each residue slot of a block has a
fixed geometry (drawn once, seed-free, from the slot's class and index) and
the seed draws its coefficients.  All generated numbers are dyadic
rationals, so the JSON floats the CLI reads are exactly the rationals the
oracles reason about.

A job is a dict:

    {"id": int, "cls": str, "argv": [...],
     "files": {relative path: text}, "out": relative path, "spec": {...}}

`argv` names its input and output files relative to the run's work
directory; the runner writes `files` there before the job starts.  `spec`
holds what the oracle needs to know about the job's inputs.
"""

import json
import random

# Jobs each run completes at least, whatever --seconds says: p90 needs at
# least ten jobs above it, and the output digest covers exactly these jobs,
# so it can be compared across runs of one seed.
MIN_JOBS = 100

# (class name, jobs per block, shape).  Counts put p50 inside the class
# marked p50 and p90 inside the class marked p90 (nearest rank).
DECAY_CLASSES = [
    ("r2-json-binomial", 2, {"r": 2, "steps": 1000, "kind": "binomial", "format": "json"}),
    ("r2-dyad", 3, {"r": 2, "steps": 2000, "kind": "dyad", "format": "csv"}),
    ("r3-coefficients", 2, {"r": 3, "steps": 1000, "kind": "coefficients", "format": "csv"}),
    ("r4-binomial-p50", 6, {"r": 4, "steps": 1000, "kind": "binomial", "format": "csv"}),
    ("r5-binomial", 3, {"r": 5, "steps": 1000, "kind": "binomial", "format": "csv"}),
    ("r6-binomial-p90", 3, {"r": 6, "steps": 1000, "kind": "binomial", "format": "csv"}),
    # r = 7 at 1300 steps and r = 8 at 1000 steps both write ~64k rows.
    ("r7-r8-binomial", 1, {"kind": "binomial", "format": "csv",
                           "choices": ({"r": 7, "steps": 1300}, {"r": 8, "steps": 1000})}),
]

CHARACTERIZE_CLASSES = [
    ("basis-json", 2, ["basis", "--r", "{v}"], ("2", "3", "4", "5", "6")),
    ("basis-csv", 2, ["basis", "--format", "csv", "--r", "{v}"], ("2", "3", "4", "5", "6")),
    ("exp-check-small", 3, ["exp-check", "--{v}"], ("r 2", "j 2", "j 3", "j 4")),
    ("exp-check-r3-p50", 6, ["exp-check", "--r", "3"], ()),
    ("exp-check-j5", 3, ["exp-check", "--j", "5"], ()),
    ("exp-check-j6", 1, ["exp-check", "--j", "6"], ()),
    ("exp-check-r4-p90", 2, ["exp-check", "--r", "4"], ()),
    # r = 5 and j = 8 cost the same; j = 7 and j = 9 are left out because a
    # single j = 9 job costs more than half a block.
    ("exp-check-r5-j8", 1, ["exp-check", "--{v}"], ("r 5", "j 8")),
]

# Residue model shapes: pole order, ket numerator/denominator degrees, bra
# numerator/denominator degrees, background present.  70% of a block has
# order <= 4, where quadrature dominates; orders 6 and 7 make the tail,
# where the exact derivative chain dominates.
RESIDUE_CLASSES = [
    ("order1", 3, {"order": 1, "ket": (0, 2), "bra": (0, 1), "background": True}),
    ("order2", 3, {"order": 2, "ket": (1, 2), "bra": (0, 1), "background": False}),
    ("order3", 4, {"order": 3, "ket": (0, 2), "bra": (0, 1), "background": True}),
    ("order4", 4, {"order": 4, "ket": (0, 2), "bra": (0, 1), "background": False}),
    ("order5", 2, {"order": 5, "ket": (0, 1), "bra": (0, 1), "background": True}),
    ("order6-p90", 3, {"order": 6, "ket": (0, 2), "bra": (0, 1), "background": False}),
    ("order7", 1, {"order": 7, "ket": (0, 2), "bra": (0, 1), "background": True}),
]


def _dyadic(rng, lo, hi, step=0.25, nonzero=False):
    """A multiple of `step` in [lo, hi], drawn uniformly."""
    count = round((hi - lo) / step)
    while True:
        value = lo + step * rng.randint(0, count)
        if value or not nonzero:
            return value


def _complex_coeff(rng):
    while True:
        re, im = _dyadic(rng, -2, 2), _dyadic(rng, -2, 2)
        if re or im:
            return [re, im]


def _decay_job(rng, shape):
    if "choices" in shape:
        shape = {**shape, **rng.choice(shape["choices"])}
    r = shape["r"]
    kind = shape["kind"]
    if kind == "binomial":
        operator = {"kind": "binomial", "n": r - 1, "include_prefactor": rng.random() < 0.5}
    elif kind == "dyad":
        ket, bra = r - 1, r - 2
        if rng.random() < 0.5:
            ket, bra = bra, ket
        operator = {"kind": "dyad", "ket": ket, "bra": bra, "coeff": _complex_coeff(rng)}
    else:
        positions = [(r - 1, r - 2), (1, r - 1), (r - 2, 0)][: 2 if r <= 3 else 3]
        if rng.random() < 0.5:
            positions = [(bra, ket) for ket, bra in positions]
        operator = {
            "kind": "coefficients",
            "entries": [
                {"ket": ket, "bra": bra, "coeff": _complex_coeff(rng)} for ket, bra in positions
            ],
        }
    config = {
        "E_R": _dyadic(rng, -2, 3),
        "Gamma": _dyadic(rng, 0.25, 2, nonzero=True),
        "r": r,
        "operator": operator,
        "grid": {"t_end": _dyadic(rng, 2, 6, step=0.5), "steps": shape["steps"]},
        "format": shape["format"],
    }
    return config


def _characterize_argv(rng, template, choices):
    value = rng.choice(choices) if choices else ""
    argv = []
    for part in template:
        argv.extend(part.format(v=value).split())
    return argv


def _upper_half_plane_roots(rng, degree):
    return [complex(_dyadic(rng, -3, 3, step=0.5), rng.choice((0.5, 0.75, 1.0, 1.5, 2.0)))
            for _ in range(degree)]


def _upper_half_plane_poly(roots):
    """Ascending complex coefficients of prod (z - w_i), Im w_i > 0."""
    coeffs = [complex(1)]
    for w in roots:
        shifted = [0j] + coeffs  # z * p
        coeffs = [shifted[i] - (w * coeffs[i] if i < len(coeffs) else 0) for i in range(len(shifted))]
    return [[c.real, c.imag] for c in coeffs]


def _residue_geometry(cls, slot, shape):
    """Pole and denominator roots of one residue slot; the same for every seed."""
    rng = random.Random(f"residue-geometry:{cls}:{slot}")
    return {
        "E_R": _dyadic(rng, 0.5, 3),
        "Gamma": _dyadic(rng, 0.5, 1.5, nonzero=True),
        "ket": _upper_half_plane_roots(rng, shape["ket"][1]),
        "bra": _upper_half_plane_roots(rng, shape["bra"][1]),
        "background": _upper_half_plane_roots(rng, 1),
    }


def _test_function(rng, role, num_degree, roots):
    return {
        "role": role,
        "num": [_complex_coeff(rng) for _ in range(num_degree + 1)],
        "den": _upper_half_plane_poly(roots),
    }


def _residue_model(rng, shape, geometry):
    order = shape["order"]
    model = {
        "E_R": geometry["E_R"],
        "Gamma": geometry["Gamma"],
        "r": order,
        "laurent": [_complex_coeff(rng) for _ in range(order)],
        "test_functions": [
            _test_function(rng, "ket", shape["ket"][0], geometry["ket"]),
            _test_function(rng, "bra", shape["bra"][0], geometry["bra"]),
        ],
    }
    if shape["background"]:
        model["background"] = {
            "num": [_complex_coeff(rng)],
            "den": _upper_half_plane_poly(geometry["background"]),
        }
    return model


def _dump(data):
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


CLASSES = {
    "decay_curve": DECAY_CLASSES,
    "characterize": CHARACTERIZE_CLASSES,
    "residue": RESIDUE_CLASSES,
}
WORKLOADS = tuple(CLASSES)


def block_size(workload):
    return sum(entry[1] for entry in CLASSES[workload])


def generate(workload, seed, blocks):
    """The first `blocks` blocks of jobs for a workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = []
    for _ in range(blocks):
        slots = [(entry, k) for entry in CLASSES[workload] for k in range(entry[1])]
        rng.shuffle(slots)
        for entry, slot in slots:
            job_id = len(jobs)
            out = f"out-{job_id}" + (".csv" if _is_csv(workload, entry) else ".json")
            job = {"id": job_id, "cls": entry[0], "out": out, "files": {}}
            if workload == "decay_curve":
                config = _decay_job(rng, entry[2])
                name = f"in-{job_id}.json"
                job["files"][name] = _dump(config)
                job["argv"] = ["evolve", "--config", name, "--out", out]
                job["spec"] = config
            elif workload == "characterize":
                argv = _characterize_argv(rng, entry[2], entry[3])
                job["argv"] = argv + ["--out", out]
                job["spec"] = {"argv": argv}
            else:
                geometry = _residue_geometry(entry[0], slot, entry[2])
                model = _residue_model(rng, entry[2], geometry)
                name = f"in-{job_id}.json"
                job["files"][name] = _dump(model)
                job["argv"] = ["residue", "--config", name, "--out", out]
                job["spec"] = model
            jobs.append(job)
    return jobs


def _is_csv(workload, entry):
    if workload == "decay_curve":
        return entry[2]["format"] == "csv"
    if workload == "characterize":
        return "csv" in entry[2]
    return False


def warmup_job(workload):
    """The set-up invocation: same subcommand, inputs no timed job uses."""
    if workload == "decay_curve":
        return {"argv": ["evolve", "--r", "2", "--n", "1", "--steps", "21", "--out", "warmup.csv"],
                "files": {}}
    if workload == "characterize":
        return {"argv": ["exp-check", "--r", "1", "--out", "warmup.json"], "files": {}}
    if workload == "residue":
        # E_R = 4 lies outside the generated range 0.5..3, so no timed job repeats it.
        model = {
            "E_R": 4.0, "Gamma": 1.0, "r": 1, "laurent": [[0.0, -1.0]],
            "test_functions": [
                {"role": "ket", "num": [1.0], "den": [[-4.0, 0.0], [0.0, -4.0], [1.0, 0.0]]},
                {"role": "bra", "num": [1.0], "den": [[0.0, -3.0], [1.0, 0.0]]},
            ],
        }
        return {"argv": ["residue", "--config", "warmup-in.json", "--out", "warmup.json"],
                "files": {"warmup-in.json": _dump(model)}}
    raise ValueError(f"unknown workload {workload!r}")


def input_key(job):
    """What a job reads, output path aside; equal keys mean repeated inputs."""
    argv = job["argv"]
    kept = [a for i, a in enumerate(argv) if a != "--out" and (i == 0 or argv[i - 1] != "--out")]
    kept = [job["files"].get(a, a) for a in kept]
    return json.dumps(kept)


def repeat_share(jobs):
    """Share of jobs whose inputs match an earlier job's."""
    seen = set()
    repeats = 0
    for job in jobs:
        key = input_key(job)
        repeats += key in seen
        seen.add(key)
    return repeats / len(jobs) if jobs else 0.0
