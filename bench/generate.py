"""Seeded input generators: a metrics CSV and a compiled Java corpus.

Both generators are pure functions of (seed, size): the same pair always
yields byte-identical files, and two seeds yield different files. Outputs
are cached (the runner uses ``.bench_cache`` in the checkout) keyed by (kind, seed, size);
each cache entry records how long it took to generate, which the runner
reports in its environment record but never counts in a metric.

The generators do not import the program under test, so the CSV column set
and validity rules below are written out independently of
``testability.metrics``. Paths are relative to the checkout root, which is
the working directory of every benchmark process.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import tempfile
import time

import numpy as np

#: The 28 code metrics, 6 test-effort metrics, then L, B and M.
COLUMNS = (
    "LOC", "NBI", "LOCCOM", "NPM", "NSTAM", "NOF", "NSTAF", "NMC", "NMCI", "NMCE",
    "WMC", "AMC", "RFC", "DIT", "NOC", "MFA", "CBO", "IC", "CBM", "Ca", "Ce",
    "LCOM", "LCOM3", "CAM", "DAM", "NPRIF", "NPRIM", "NPROM",
    "T-LOC", "T-NOT", "T-NOA", "T-NMC", "T-WMC", "T-AMC",
    "L", "B", "M",
)

#: Columns holding real numbers; every other column is a non-negative count.
FLOAT_COLUMNS = frozenset({"AMC", "MFA", "LCOM3", "CAM", "DAM", "T-AMC", "L", "B", "M"})

FIXTURE_DIR = os.path.join("tests", "fixtures", "corpus", "fix")
PRODUCTION_CLASSES = ("Box", "Circle", "Empty", "Ext", "Mixed", "Shape", "Sphere", "Util")


# ---- metrics CSV ---------------------------------------------------------------


def metrics_columns(seed: int, rows: int) -> dict[str, np.ndarray]:
    """Column arrays of ``rows`` valid records.

    A latent ``z`` (how thorough the test is) drives the mutation score M
    and the planted test-effort metrics; a latent ``s`` (class size)
    drives the code metrics. Counts are small Poisson draws and M is
    killed/mutants over a dozen or so mutants, so every column is
    tie-heavy, as real metric data is.
    """
    rng = np.random.default_rng([seed, rows, 0x6D65])
    z = rng.standard_normal(rows)
    s = rng.standard_normal(rows)

    def poisson(log_mean):
        return rng.poisson(np.exp(log_mean))

    def noise(scale):
        return scale * rng.standard_normal(rows)

    c: dict[str, np.ndarray] = {}
    c["LOC"] = 1 + poisson(3.4 + 0.7 * s)
    c["NBI"] = 3 + rng.poisson(3.0 * c["LOC"])
    c["LOCCOM"] = poisson(1.2 + 0.5 * s)
    c["NPM"] = poisson(1.0 + 0.5 * s)
    c["NSTAM"] = rng.poisson(0.4, rows)
    c["NOF"] = poisson(0.8 + 0.4 * s)
    c["NSTAF"] = rng.poisson(0.3, rows)
    c["NMCI"] = poisson(0.6 + 0.5 * s)
    c["NMCE"] = poisson(1.1 + 0.5 * s)
    c["NMC"] = c["NMCI"] + c["NMCE"]
    c["WMC"] = c["NPM"] + c["NSTAM"] + poisson(0.7 + 0.5 * s)
    c["AMC"] = np.round(c["LOC"] / np.maximum(c["WMC"], 1), 4)
    c["RFC"] = c["WMC"] + c["NMCE"] + rng.poisson(1.0, rows)
    c["DIT"] = 1 + rng.poisson(0.6, rows)
    c["NOC"] = rng.poisson(0.3, rows)
    c["MFA"] = np.where(c["DIT"] > 1, np.round(rng.uniform(0, 1, rows), 2), 0.0)
    c["CBO"] = poisson(1.0 + 0.4 * s)
    c["IC"] = rng.poisson(0.4, rows)
    c["CBM"] = rng.poisson(0.5, rows)
    c["Ca"] = poisson(0.5 + 0.3 * s)
    c["Ce"] = poisson(1.0 + 0.4 * s + 0.2 * z)
    c["LCOM"] = poisson(1.5 + 0.8 * s)
    c["LCOM3"] = np.round(rng.integers(0, 41, rows) * 0.05, 2)
    c["CAM"] = np.round(rng.uniform(0.1, 1.0, rows), 2)
    c["NPRIF"] = rng.binomial(c["NOF"], 0.7)
    c["DAM"] = np.where(c["NOF"] > 0, np.round(c["NPRIF"] / np.maximum(c["NOF"], 1), 4), 1.0)
    c["NPRIM"] = rng.poisson(0.8, rows)
    c["NPROM"] = rng.poisson(0.3, rows)

    c["T-LOC"] = 1 + poisson(2.8 + 0.6 * z + 0.3 * s + noise(0.45))
    c["T-NOT"] = 1 + poisson(0.9 + 0.6 * z + noise(0.45))
    c["T-NOA"] = poisson(1.3 + 0.7 * z + noise(0.5))
    c["T-NMC"] = poisson(1.5 + 0.55 * z + 0.2 * s + noise(0.5))
    c["T-WMC"] = c["T-NOT"] + poisson(0.4 + 0.6 * z + noise(0.5))
    c["T-AMC"] = np.round(c["T-LOC"] / c["T-NOT"], 4)

    mutants = 4 + rng.poisson(10, rows)
    killed = rng.binomial(mutants, 1.0 / (1.0 + np.exp(-(1.3 * z + 0.3))))
    c["M"] = killed / mutants
    c["L"] = np.round(1.0 / (1.0 + np.exp(-(1.1 * z + noise(0.8) + 0.8))), 2)
    c["B"] = np.round(c["L"] * rng.uniform(0.5, 1.0, rows), 2)
    return c


def write_metrics_csv(path: str, seed: int, rows: int) -> None:
    cols = metrics_columns(seed, rows)
    cells = {
        name: [repr(float(v)) for v in cols[name]] if name in FLOAT_COLUMNS
        else [str(int(v)) for v in cols[name]]
        for name in COLUMNS
    }
    with open(path, "w", encoding="utf-8", newline="") as out:
        out.write(",".join(("class_id", "test_id") + COLUMNS) + "\n")
        for i in range(rows):
            class_id = f"org.gen.p{i // 40:04d}.C{i:06d}"
            out.write(f"{class_id},{class_id}Test,")
            out.write(",".join(cells[name][i] for name in COLUMNS) + "\n")


# ---- Java corpus ---------------------------------------------------------------

_PRODUCTION_MEMBER = """
    private int tally{k};

    // variant {tag}
    public int step{k}(int limit) {{
        int acc = {a};
        for (int i = 0; i < limit; i++) {{
            if (i % {b} == 0 && acc < {c}) {{
                acc += i;
            }} else {{
                acc -= {d};
            }}
        }}
        tally{k} = acc;
        return acc > {e} ? acc : {e};
    }}
"""

_TEST_MEMBER = """
    @Test
    public void testStep{k}() {{
        int probe = {a} + {b};
        assertTrue(probe > {c});
        assertEquals({d}, probe - {e});
    }}
"""


def _vary(text: str, package: str, template: str, rng: np.random.Generator) -> str:
    """Rename the package and append 1-3 seeded members to the top-level type."""
    text = text.replace("package fix;", f"package {package};", 1)
    members = []
    for k in range(int(rng.integers(1, 4))):
        a, b, c, d, e = (int(v) for v in rng.integers(1, 200, 5))
        members.append(template.format(
            k=k, a=a, b=b % 7 + 2, c=c, d=d % 5 + 1, e=e, tag=rng.integers(1 << 30)))
    body = text.rstrip()
    if not body.endswith("}"):
        raise ValueError(f"fixture for {package} does not end with its type's closing brace")
    return body[:-1].rstrip() + "\n" + "".join(members) + "}\n"


def write_java_corpus(root: str, seed: int, packages: int) -> dict:
    """Write ``packages`` varied copies of the fixture corpus under root/src.

    Production classes are compiled with ``javac`` into root/classes, as a
    built project would have them, so every paired class has an NBI.
    """
    fixtures = {}
    for name in sorted(os.listdir(FIXTURE_DIR)):
        if name.endswith(".java"):
            with open(os.path.join(FIXTURE_DIR, name), encoding="utf-8") as handle:
                fixtures[name[:-5]] = handle.read()
    src = os.path.join(root, "src")
    production: list[str] = []
    lines = files = 0
    for p in range(packages):
        rng = np.random.default_rng([seed, packages, p, 0x6A76])
        package = f"gen.p{p:05d}"
        directory = os.path.join(src, "gen", f"p{p:05d}")
        os.makedirs(directory)
        for cls, text in fixtures.items():
            is_production = cls in PRODUCTION_CLASSES
            template = _PRODUCTION_MEMBER if is_production else _TEST_MEMBER
            varied = _vary(text, package, template, rng)
            path = os.path.join(directory, cls + ".java")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(varied)
            lines += varied.count("\n")
            files += 1
            if is_production:
                production.append(os.path.relpath(path, root))
    argfile = os.path.join(root, "javac.args")
    with open(argfile, "w", encoding="utf-8") as handle:
        handle.write("\n".join(production) + "\n")
    subprocess.run(
        ["javac", "-J-Xmx512m", "-J-XX:+UseSerialGC", "-J-XX:-UsePerfData", "-nowarn",
         "-proc:none", "-implicit:none", "-encoding", "UTF-8", "-d", "classes", "@javac.args"],
        cwd=root, check=True, stdout=subprocess.DEVNULL,
    )
    os.unlink(argfile)
    return {"files": files, "lines": lines, "production_classes": len(production),
            "pairs": packages * sum(1 for c in fixtures if c + "Test" in fixtures)}


# ---- cache ---------------------------------------------------------------------


def tree_digest(root: str) -> str:
    """sha256 over relative paths and contents of every file under root."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def cached(cache_root: str, kind: str, seed: int, size: int, build) -> tuple[str, dict]:
    """Return (directory, info) for a cache entry, building it if absent.

    ``build(directory)`` fills a fresh directory and returns a dict of
    facts about the input; the entry is published by an atomic rename, so
    an interrupted build leaves nothing behind that a later run trusts.
    """
    entry = os.path.join(cache_root, f"{kind}-seed{seed}-size{size}")
    info_path = os.path.join(entry, "input.json")
    if os.path.exists(info_path):
        with open(info_path, encoding="utf-8") as handle:
            info = json.load(handle)
        info["cached"] = True
        return entry, info
    os.makedirs(cache_root, exist_ok=True)
    staging = tempfile.mkdtemp(dir=cache_root, prefix=".build-")
    try:
        start = time.perf_counter()
        info = build(staging)
        info.update(kind=kind, seed=seed, size=size,
                    generate_s=time.perf_counter() - start)
        info["digest"] = tree_digest(staging)
        with open(os.path.join(staging, "input.json"), "w", encoding="utf-8") as handle:
            json.dump(info, handle, indent=1, sort_keys=True)
        os.rename(staging, entry)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    info["cached"] = False
    return entry, info


def metrics_csv(cache_root: str, seed: int, rows: int) -> tuple[str, dict]:
    def build(directory: str) -> dict:
        write_metrics_csv(os.path.join(directory, "metrics.csv"), seed, rows)
        return {"rows": rows, "lines": rows + 1}

    entry, info = cached(cache_root, "csv", seed, rows, build)
    return os.path.join(entry, "metrics.csv"), info


def java_corpus(cache_root: str, seed: int, packages: int) -> tuple[str, dict]:
    return cached(cache_root, "corpus", seed, packages,
                  lambda directory: write_java_corpus(directory, seed, packages))
