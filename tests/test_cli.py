"""Golden test of the command-line front end.

Every command runs in-process under a temporary working directory with
relative paths, because the run manifest records the ``--dataset`` text
as given. Each output file and each command's stdout is checked by sha256
against values recorded from an earlier release, so a change to report
bytes, manifest hashes or serialized models fails here.
"""

import contextlib
import hashlib
import io
import multiprocessing
import os
import shutil
import subprocess
import sys
import warnings
import zipfile

import pytest

from classfile_builder import IMPLICIT_CTOR, NOP, RETURN, build_class
from conftest import CORPUS_DIR, FIXTURES
from testability.cli import main
from testability.javasrc import extract
from testability.learn import ModelKind, evaluation
from testability.metrics import INDEPENDENT_VARIABLES

DATA = ["--dataset", "metrics.csv", "--config", "run.cfg"]
PAIRED = ("fix.Box", "fix.Circle", "fix.Empty", "fix.Mixed", "fix.Util")

#: (output directory, argv without --out), in the order they run.
COMMANDS = [
    ("extract", ["extract", "--src", "corpus"]),
    ("extract-nbi", ["extract", "--src", "corpus", "--classes", "classes"]),
    ("label", ["label", *DATA]),
    ("correlate", ["correlate", *DATA]),
    ("evaluate", ["evaluate", *DATA, "--seed", "1"]),
    ("rank", ["rank", *DATA]),
    ("pipeline", ["pipeline", *DATA, "--seed", "1"]),
    *((f"train-{c}", ["train", *DATA, "--classifier", c, "--seed", "1"])
      for c in ("tree", "forest", "mlp")),
    *((f"predict-{c}", ["predict", f"train-{c}/model.txt", *DATA])
      for c in ("tree", "forest", "mlp")),
]

GOLDEN = {
    "extract/<stdout>":
        "0e00abdbfc129665dd3bae66673651ad9c083672daf652381df278a55806c324",
    "extract/metrics.csv":
        "3ad67a6cb72043571cc5ca4f5b37e14f7e99caf2eec2b1694c62e1fd6f7a9b88",
    "extract-nbi/<stdout>":
        "e03c2f57f3914eef6858f2570da172dc0fbcfd81df9dde4b1512923f96e7b1c5",
    "extract-nbi/metrics.csv":
        "0472555cea024ea6175d0c8f8925a9f0ca83e39dc7821ca0180e92600a1f7271",
    "label/<stdout>":
        "e5ba641db0ec3e00b54f984656d22b57a712f697e8cd87eebc45ac733ff0a38b",
    "label/labeled.csv":
        "b6b50e6ead87c3f93be56ae5dab41225d7385ff8439e5e924477a642a878ae07",
    "correlate/<stdout>":
        "d913dcfb085a5346d2b94cc55eb54db2a2636da7ed570f8028b31dfc4da41e2e",
    "correlate/correlations.csv":
        "724dd2d769d3c965d37f0d03735913fb6db558411c60cfd4b571cf7cb513a5b5",
    "correlate/correlations.md":
        "f2535f72ed767e7b25babadc0ce1c48a713eae64a1d88f7410f325da75a18cf9",
    "correlate/manifest.txt":
        "042c43cf298a42bd276886d0b5c24fafd8856547ac7c7e374bdaa85e8f803a1a",
    "evaluate/<stdout>":
        "fde1bc7ea5ffbbd76102bd437ca7c7d134ebdc3bae43fa27a4af39e2d8e9fce3",
    "evaluate/classification.csv":
        "e4992e2545384977fb9abcd23f5f18ea966a43937987ff36d008726a9f69f186",
    "evaluate/classification.md":
        "d1d3de3bb07a886fc9929cc13799728456be3bd22a48182773baed36cc4944fa",
    "evaluate/manifest.txt":
        "2606638a42c3b342720cedd2e90ca2104c3a3fd38a477a2549e00f5d0662f898",
    "rank/<stdout>":
        "d44410218fea2d340157517c66cf2ff70167ea28beed65e9f689e64c3c0fd406",
    "rank/manifest.txt":
        "f9b1a3db1aff7a9cabebea96f3ec569c88059272d68fe2f4de133a988ebef33b",
    "rank/ranking.csv":
        "0ef00d41f3a49016181381e6306c7c6cfcb5af661bc85f978120f66ec6f868b4",
    "rank/ranking.md":
        "c3f11bae269ef8e1ddff10e83661eb726958a5620c780b7cc933037e2d9c2a72",
    "pipeline/<stdout>":
        "c5d51cdda8e6460bcebc88ad954b4c9dc367f73b65c012592f92d23ce0da7864",
    "pipeline/classification.csv":
        "6a617e99c2cc550dc6db81d69530d950817dfe5e5e45d6358a08f50c6b365a4c",
    "pipeline/classification.md":
        "953969606b30ac3bc7da5938ad65c384c75f51b30ee8400bb09816e4e98ab992",
    "pipeline/correlations.csv":
        "a487424260b084aba66bdb07dd44f85271851e609e623941ce2d468936fa2fc7",
    "pipeline/correlations.md":
        "06b3729b69b49257cbebb576a984559daf7aa47e91d905b1ad846259f183f31a",
    "pipeline/manifest.txt":
        "5d8371db2e0dae51968dc0c356e864cd6fb9ab4730dfb477e9d006168b0b0139",
    "pipeline/ranking.csv":
        "608f09ae80b387ecc233ef05c21dab1e991ddc143bf46bb21ace270adaefc7e1",
    "pipeline/ranking.md":
        "ec386bf6780a2bed4db54b8597eaefc8b6b568ef857b8b54f47b7ab6e59debe9",
    "train-tree/<stdout>":
        "c2340a37a68b0cce3f598690f182a36399f24fa6f2b01d2ea1888f2c41b54d81",
    "train-tree/model.txt":
        "d888823ca336fc5b45a586cf3ec462346427826bc457e13deedd7befcf478be0",
    "train-forest/<stdout>":
        "9c0174fdc51fcc9fdffb317ecae587b18da9fedb9cec0656b862853537db4338",
    "train-forest/model.txt":
        "8651d05de82eb4139ed835e75797332de4331d7551ff7d2dfab9a9469ce2b910",
    "train-mlp/<stdout>":
        "4e875bc27400741c5f08f13625088d541ca5de7ba06a0a6ac01d0af802b841eb",
    "train-mlp/model.txt":
        "b6a27d5a875e5873e7c0da125195a87e4bd9519147139cdcefec1833ed3625fe",
    "predict-tree/<stdout>":
        "9eb182f1d647e863c63f8e300534b3b2e51f650878a784fd3a4c2a1b728e04cb",
    "predict-tree/predictions.csv":
        "70d7ffb2cb9dd0046bc929b35f2f4cedf0ccaa867480952ee0d77411a3c9fdfb",
    "predict-forest/<stdout>":
        "820c91dbf6231d603504db05e1d339867f272ae754d022cca1caffeaa2e7989a",
    "predict-forest/predictions.csv":
        "954c2d2c49cbaf4b8e5f76cb66d8df4a742000900de82ad6fd8c6a0c0a709cc6",
    "predict-mlp/<stdout>":
        "7a08068c25fc1797c099c7ed015ac6485c85b5650a40c013f270354970ea26ae",
    "predict-mlp/predictions.csv":
        "dd509bcac61658de3f45c4ab54b7ee5e8c34aba8ed04470a8b8a931648855420",
}


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_classes(directory, names):
    os.makedirs(directory, exist_ok=True)
    for i, name in enumerate(names):
        data = build_class(name, [("<init>", "()V", IMPLICIT_CTOR),
                                  ("m", "()V", [NOP] * i + [RETURN])])
        with open(os.path.join(directory, name.rsplit(".", 1)[1] + ".class"), "wb") as out:
            out.write(data)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    shutil.copy(os.path.join(FIXTURES, "metrics.csv"), tmp_path / "metrics.csv")
    shutil.copytree(CORPUS_DIR, tmp_path / "corpus")
    (tmp_path / "run.cfg").write_text("trees = 5\nepochs = 30\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run_all():
    """Run COMMANDS in the working directory; sha256 of every output and stdout."""
    write_classes("classes", PAIRED)
    digests = {}
    for out, argv in COMMANDS:
        code, stdout, stderr = run(*argv, "--out", out)
        assert code == 0, (out, stderr)
        digests[f"{out}/<stdout>"] = sha(stdout.encode("utf-8"))
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as handle:
                digests[f"{out}/{name}"] = sha(handle.read())
    return digests


def test_outputs_match_golden_digests(workdir):
    assert run_all() == GOLDEN


@pytest.mark.parametrize("argv, code, message", [
    (["label"], 2, "--dataset"),
    (["correlate", *DATA, "--features", "NOPE"], 2, "NOPE"),
    (["evaluate", *DATA, "--seed", "1", "--classifier", "bogus"], 2, "bogus"),
    (["label", *DATA, "--q1", "0.5", "--q3", "0.5"], 3, "degenerate"),
    (["evaluate", *DATA, "--seed", "1", "--classifier", "tree", "--k", "100"], 4,
     ModelKind.DECISION_TREE.value),
    (["label", "--features", "LOC", "--dataset", os.path.join(FIXTURES, "short-id-row.csv")],
     2, "bad dataset: row 2, column class_path: bad cell ''"),
    (["label", "--features", "LOC", "--dataset", "big-cell.csv"],
     2, "bad dataset: row 3: field larger than field limit (131072)"),
    (["label", *DATA, "--out", "metrics.csv"], 2, "cannot write output: metrics.csv/labeled.csv"),
    (["train", *DATA, "--classifier", "tree", "--seed", "1", "--out", "metrics.csv/model.txt"],
     2, "cannot write output: metrics.csv/model.txt"),
    (["label", "--dataset", "metrics.csv", "--config", "nope.cfg"], 2, "cannot read config: "),
    (["correlate", "--features", "LOC", "--dataset", "five.csv", "--population", "labeled",
      "--q1", "0.1", "--q3", "0.9"], 2, "error: need at least 3 records"),
])
def test_error_exit_codes(workdir, argv, code, message):
    with open("big-cell.csv", "w", encoding="utf-8") as out:  # a cell over the csv field limit
        out.write("LOC,M\n1,0.5\n" + "9" * 140_000 + ",0.5\n")
    with open("five.csv", "w", encoding="utf-8") as out:  # labelling keeps the first and last
        out.write("LOC,M\n1,0.0\n2,0.5\n3,0.5\n4,0.5\n5,1.0\n")
    got, _, stderr = run(argv[0], "--out", "out", *argv[1:])  # a later --out wins
    assert got == code
    assert message in stderr
    assert not os.path.exists("out")


@pytest.mark.parametrize("command, settings, message", [
    ("evaluate", ["--k", "0"], "k (cross-validation folds) must be at least 2, got 0"),
    ("evaluate", ["--k", "1"], "k (cross-validation folds) must be at least 2, got 1"),
    ("pipeline", ["--k", "-1"], "k (cross-validation folds) must be at least 2, got -1"),
    ("evaluate", ["--config", "bad.cfg", "trees = 0"], "trees must be at least 1, got 0"),
    ("pipeline", ["--config", "bad.cfg", "trees = -2"], "trees must be at least 1, got -2"),
    ("evaluate", ["--config", "bad.cfg", "features_per_split = -1"],
     "features_per_split must be at least 1 or auto, got -1"),
    ("evaluate", ["--config", "bad.cfg", "min_leaf = 0"], "min_leaf must be at least 1, got 0"),
    ("evaluate", ["--config", "bad.cfg", "max_depth = -1"],
     "max_depth must be at least 0 or none, got -1"),
    ("evaluate", ["--config", "bad.cfg", "forest_min_leaf = 0"],
     "forest_min_leaf must be at least 1, got 0"),
    ("evaluate", ["--config", "bad.cfg", "hidden = 0"], "hidden must be at least 1 or auto, got 0"),
    ("evaluate", ["--config", "bad.cfg", "epochs = -1"], "epochs must be at least 0, got -1"),
    ("evaluate", ["--config", "bad.cfg", "features_per_split = 100"],
     "features_per_split must be at most the 34 features, got 100"),
    ("pipeline", ["--config", "bad.cfg", "features_per_split = 35"],
     "features_per_split must be at most the 34 features, got 35"),
    ("train", ["--classifier", "forest", "--config", "bad.cfg", "features_per_split = 100"],
     "features_per_split must be at most the 34 features, got 100"),
    ("correlate", ["--threshold", "nan"], "threshold must be in [0, 1], got nan"),
    ("correlate", ["--threshold", "-1"], "threshold must be in [0, 1], got -1.0"),
    ("pipeline", ["--threshold", "2"], "threshold must be in [0, 1], got 2.0"),
    ("correlate", ["--config", "bad.cfg", "population = bogus"],
     "population must be raw or labeled, got 'bogus'"),
    ("label", ["--q1", "0.9", "--q3", "0.1"], "q1 must be at most q3, got q1=0.9 and q3=0.1"),
    ("pipeline", ["--config", "bad.cfg", "q1 = 0.8\nq3 = 0.2"],
     "q1 must be at most q3, got q1=0.8 and q3=0.2"),
    ("correlate", ["--population", "bogus"], "population must be raw or labeled, got 'bogus'"),
    ("evaluate", ["--seed", "abc"], "seed must be an integer, got 'abc'"),
    ("evaluate", ["--k", "1.5"], "k must be an integer, got '1.5'"),
    ("correlate", ["--threshold", "x"], "threshold must be a number, got 'x'"),
    ("label", ["--q1", "low", "--q3", "0.9"], "q1 must be a number, got 'low'"),
    ("evaluate", ["--config", "bad.cfg", "trees = many"],
     "bad.cfg:1: trees must be an integer, got 'many'"),
    ("rank", ["--q1", "-1", "--q3", "2"], "ranking needs at least 2 labeled rows, got 0"),
    ("rank", ["--dataset", "one-labeled.csv", "--features", "LOC", "--q1", "0.2", "--q3", "0.9"],
     "ranking needs at least 2 labeled rows, got 1"),
    ("rank", ["--features", "LOC,LOC,WMC"], "features repeat the column 'LOC'"),
    ("train", ["--classifier", "tree", "--config", "bad.cfg", "features = WMC,LOC,WMC"],
     "features repeat the column 'WMC'"),
    ("evaluate", ["--seed", "-1"], "seed must be at least 0, got -1"),
    ("train", ["--classifier", "tree", "--seed", "-2"], "seed must be at least 0, got -2"),
])
def test_out_of_range_settings_exit_2_and_write_no_report(workdir, command, settings, message):
    (workdir / "one-labeled.csv").write_text("LOC,M\n1,0.1\n2,0.5\n", encoding="utf-8")
    if "--config" in settings:
        (workdir / "bad.cfg").write_text(settings.pop() + "\n", encoding="utf-8")
    code, _, stderr = run(command, "--dataset", "metrics.csv", "--seed", "1", *settings,
                          "--out", "out")
    assert code == 2
    assert message in stderr
    assert not os.path.exists("out") or os.listdir("out") == []


@pytest.mark.parametrize("argv, prefix", [
    (["label", "--features", "LOC", "--dataset", "latin.txt"], "bad dataset"),
    (["label", *DATA, "--config", "latin.txt"], "cannot read config"),
    (["extract", "--src", "corpus", "--pairs", "latin.txt"], "bad pairing file"),
    (["predict", "latin.txt", *DATA], "bad model file"),
], ids=["dataset", "config", "pairs", "model"])
def test_a_file_that_is_not_utf8_exits_2_naming_its_line(workdir, argv, prefix):
    with open("latin.txt", "wb") as out:
        out.write(b"LOC,M\n1,0.5\n\xff,0.2\n")
    code, _, stderr = run(*argv, "--out", "out")
    assert code == 2
    assert f"error: {prefix}: latin.txt: line 3: not UTF-8 (byte 0xff)" in stderr
    assert not os.path.exists("out")


def test_labelling_that_keeps_no_row_writes_every_variable_in_the_header(workdir):
    with open("mid.csv", "w", encoding="utf-8") as out:
        out.write("class_path,test_path,LOC,M\na,b,1,0.5\nc,d,2,0.6\n")
    code, stdout, _ = run("label", "--features", "LOC", "--dataset", "mid.csv",
                          "--q1", "0.1", "--q3", "0.9", "--out", "out")
    assert code == 0 and "labeled 0" in stdout
    with open("out/labeled.csv", encoding="utf-8") as handle:
        assert handle.read() == ",".join(
            ["class_id", "test_id", *(m.column for m in INDEPENDENT_VARIABLES), "M", "label"]
        ) + "\n"


def test_predict_on_csv_missing_a_model_feature_exits_5(workdir):
    assert run("train", *DATA, "--classifier", "tree", "--seed", "1", "--out", "m")[0] == 0
    with open("metrics.csv", encoding="utf-8") as src, \
            open("short.csv", "w", encoding="utf-8") as dst:
        for line in src:
            cells = line.split(",")
            dst.write(",".join(cells[:2] + cells[3:]))
    code, _, stderr = run("predict", "m/model.txt", "--dataset", "short.csv", "--out", "p")
    assert code == 5
    assert "LOC" in stderr


def test_extract_names_production_classes_without_a_class_file(workdir):
    write_classes("classes", PAIRED[:1])
    code, _, stderr = run("extract", "--src", "corpus", "--classes", "classes", "--out", "x")
    assert code == 2
    assert "no class file for: fix.Circle, fix.Empty, fix.Mixed, fix.Util" in stderr


@pytest.mark.parametrize("name, data", [
    ("Deep.java", b"class Deep { int f() { return " + b"(" * 3000 + b"1" + b")" * 3000
     + b"; } }"),
    ("Latin.java", "// caf\xe9\nclass Latin {}\n".encode("latin-1")),
], ids=["deep-nesting", "latin-1"])
def test_extract_names_a_source_file_it_cannot_parse(workdir, name, data):
    path = os.path.join("corpus", "fix", name)
    with open(path, "wb") as out:
        out.write(data)
    code, _, stderr = run("extract", "--src", "corpus", "--out", "x")
    assert code == 2
    assert f"error: {path}: cannot parse" in stderr


def test_extract_names_a_source_root_that_does_not_exist(workdir):
    code, _, stderr = run("extract", "--src", "corpus,does/not/exist", "--out", "x")
    assert code == 2
    assert "error: does/not/exist: no such file or directory" in stderr
    assert not os.path.exists("x")


@pytest.mark.parametrize("roots", ["notes.txt", "corpus,notes.txt"], ids=["alone", "with-corpus"])
def test_extract_names_a_source_root_that_is_not_java(workdir, roots):
    (workdir / "notes.txt").write_text("class A {}\n", encoding="utf-8")
    code, _, stderr = run("extract", "--src", roots, "--out", "x")
    assert code == 2
    assert "error: notes.txt: not a directory or .java file" in stderr
    assert not os.path.exists("x")


def _truncated_jar(path):
    with zipfile.ZipFile(path, "w") as archive:
        archive.writestr("fix/Box.class", build_class("fix.Box", [("m", "()V", [RETURN])])[:30])


@pytest.mark.parametrize("classes, message", [
    ("not-a-zip.jar", "not-a-zip.jar: not a readable zip archive"),
    ("classes", f"{os.path.join('classes', 'Box.class')}: truncated class file"),
    ("cut.jar", "cut.jar!fix/Box.class: truncated class file"),
], ids=["not-a-zip", "truncated-file", "truncated-jar-entry"])
def test_a_bad_class_file_exits_2_naming_it(workdir, classes, message):
    write_classes("classes", PAIRED)
    with open(os.path.join("classes", "Box.class"), "r+b") as handle:
        handle.truncate(30)
    with open("not-a-zip.jar", "w", encoding="utf-8") as out:
        out.write("plain text\n")
    _truncated_jar("cut.jar")
    code, _, stderr = run("extract", "--src", "corpus", "--classes", classes, "--out", "x")
    assert code == 2
    assert f"error: bad class files: {message}" in stderr
    assert not os.path.exists("x")


@pytest.mark.parametrize("argv", [
    ["train", "--classifier", "mlp"],
    ["evaluate", "--classifier", "mlp", "--k", "2"],
], ids=["train", "evaluate"])
def test_an_mlp_feature_that_overflows_standardization_exits_4(workdir, argv):
    with open("huge.csv", "w", encoding="utf-8") as out:  # squaring k * 1e300 overflows
        out.write("LOC,M\n" + "".join(f"{k}e300,{k / 40}\n" for k in range(1, 41)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning fails the run
        code, _, stderr = run(*argv, "--dataset", "huge.csv", "--features", "LOC",
                              "--seed", "1", "--out", "out")
    assert code == 4
    assert "feature LOC cannot be standardized" in stderr
    assert not os.path.exists("out")


def test_extract_parses_a_long_else_if_chain(workdir):
    chain = " else ".join(f"if (x == {k}) {{ x++; }}" for k in range(1000))
    with open(os.path.join("corpus", "fix", "Chain.java"), "w", encoding="utf-8") as out:
        out.write(f"package fix;\nclass Chain {{ int x; void m() {{ {chain} }} }}\n")
    code, _, stderr = run("extract", "--src", "corpus", "--out", "x")
    assert code == 0, stderr


def test_predict_with_a_truncated_model_exits_2(workdir):
    assert run("train", *DATA, "--classifier", "tree", "--seed", "1", "--out", "m")[0] == 0
    with open("m/model.txt", encoding="utf-8") as handle:
        lines = handle.readlines()
    with open("cut.txt", "w", encoding="utf-8") as out:
        out.writelines(lines[: len(lines) // 2])
    code, _, stderr = run("predict", "cut.txt", *DATA, "--out", "p")
    assert code == 2
    assert "bad model file" in stderr


def test_a_dead_cross_validation_worker_exits_4_naming_the_classifier(workdir, monkeypatch):
    monkeypatch.setattr(evaluation, "train_model", lambda *args, **kwargs: os._exit(1))
    code, _, stderr = run("evaluate", *DATA, "--seed", "1", "--classifier", "forest",
                          "--out", "out")
    assert code == 4
    assert f"{ModelKind.RANDOM_FOREST.value}: training failed on fold 0" in stderr


def _exit_worker(*args):
    os._exit(1)


@pytest.mark.parametrize("classes", [[], ["--classes", "classes"]], ids=["source", "nbi"])
def test_a_dead_extraction_worker_exits_2_and_leaves_no_process(workdir, monkeypatch,
                                                                 classes):
    write_classes("classes", PAIRED)
    monkeypatch.setattr(extract, "summarize_files", _exit_worker)
    code, _, stderr = run("extract", "--src", "corpus", *classes, "--out", "x")
    assert code == 2
    assert stderr.startswith("error: a worker process died: ")
    assert stderr.count("\n") == 1 and "terminated abruptly" in stderr
    assert multiprocessing.active_children() == []
    assert not os.path.exists("x")


def test_unparsable_files_in_different_jobs_are_listed_in_file_order(workdir):
    os.makedirs("many")
    names = [f"C{k:03d}" for k in range(extract.FILES_PER_JOB + 2)]
    bad = {names[0], names[extract.FILES_PER_JOB + 1]}  # first and second job
    for name in names:
        body = "{ void m( { }" if name in bad else "{}"
        with open(os.path.join("many", f"{name}.java"), "w", encoding="utf-8") as out:
            out.write(f"class {name} {body}\n")
    code, _, stderr = run("extract", "--src", "many", "--out", "x")
    assert code == 2
    lines = stderr.splitlines()
    assert len(lines) == 3 and lines[2] == "error: 2 source path(s) failed to parse"
    for line, name in zip(lines, sorted(bad)):
        assert line.startswith(f"error: {os.path.join('many', name)}.java:1:")


def test_importing_the_cli_loads_no_process_pool_modules():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    script = ("import sys, testability.cli; "
              "print(sorted(m for m in sys.modules "
              "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"
