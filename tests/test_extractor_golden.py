"""Golden corpus: hand-computed expected values for all 34 metrics.

Every number below was derived by hand from the fixture sources in
fixtures/corpus/fix/ (line counts from the file layout, call/decision
counts from reading the code). Integers must match exactly; ratio metrics
to 1e-9.
"""

import dataclasses
import math
import pickle
from array import array

import pytest
from classfile_builder import (
    ACONST_NULL,
    ALOAD_0,
    ARETURN,
    ICONST_0,
    ICONST_1,
    ICONST_2,
    ILOAD_1,
    IMPLICIT_CTOR,
    IADD,
    IRETURN,
    RETURN,
    build_class,
    invokespecial,
    tableswitch,
)

from conftest import CORPUS_DIR
from testability.classfile import count_nbi, parse_classfile
from testability.javasrc import (
    ParsedCorpus,
    build_corpus_index,
    extract_records,
    find_java_files,
    pair_classes,
    parse_source,
)
from testability.javasrc.corpus import SUMMARY_METRICS, ClassSummary
from testability.javasrc.extract import compute_code_metrics, summarize_files
from testability.metrics import INDEPENDENT_VARIABLES, MetricId as M

# (LOC, LOCCOM, NPM, NSTAM, NOF, NSTAF, NMC, NMCI, NMCE) then
# (WMC, AMC, RFC), (DIT, NOC, MFA), (CBO, IC, CBM, Ca, Ce),
# (LCOM, LCOM3, CAM), (DAM, NPRIF, NPRIM, NPROM)
EXPECTED_CODE = {
    "fix.Box": {
        M.LOC: 17, M.LOCCOM: 1, M.NPM: 1, M.NSTAM: 0, M.NOF: 2, M.NSTAF: 0,
        M.NMC: 3, M.NMCI: 1, M.NMCE: 2,
        M.WMC: 2, M.AMC: 1.0, M.RFC: 3,
        M.DIT: 0, M.NOC: 0, M.MFA: 0.0,
        M.CBO: 2, M.IC: 0, M.CBM: 0, M.CA: 2, M.CE: 1,
        M.LCOM: 0, M.LCOM3: 0.5, M.CAM: 1.0,
        M.DAM: 1.0, M.NPRIF: 2, M.NPRIM: 1, M.NPROM: 0,
    },
    "fix.Shape": {
        M.LOC: 10, M.LOCCOM: 0, M.NPM: 3, M.NSTAM: 0, M.NOF: 1, M.NSTAF: 0,
        M.NMC: 0, M.NMCI: 0, M.NMCE: 0,
        M.WMC: 3, M.AMC: 1.0, M.RFC: 3,
        M.DIT: 0, M.NOC: 1, M.MFA: 0.0,
        M.CBO: 1, M.IC: 0, M.CBM: 0, M.CA: 1, M.CE: 1,
        M.LCOM: 1, M.LCOM3: 0.5, M.CAM: 1.0 / 3.0,
        M.DAM: 1.0, M.NPRIF: 0, M.NPRIM: 0, M.NPROM: 0,
    },
    "fix.Circle": {
        M.LOC: 17, M.LOCCOM: 0, M.NPM: 2, M.NSTAM: 0, M.NOF: 1, M.NSTAF: 0,
        M.NMC: 2, M.NMCI: 1, M.NMCE: 1,
        M.WMC: 4, M.AMC: 2.0, M.RFC: 3,
        M.DIT: 1, M.NOC: 1, M.MFA: 0.5,
        M.CBO: 2, M.IC: 1, M.CBM: 1, M.CA: 2, M.CE: 1,
        M.LCOM: 0, M.LCOM3: 0.0, M.CAM: 0.5,
        M.DAM: 1.0, M.NPRIF: 1, M.NPRIM: 0, M.NPROM: 0,
    },
    "fix.Sphere": {
        M.LOC: 9, M.LOCCOM: 0, M.NPM: 1, M.NSTAM: 0, M.NOF: 0, M.NSTAF: 0,
        M.NMC: 1, M.NMCI: 0, M.NMCE: 1,
        M.WMC: 1, M.AMC: 1.0, M.RFC: 1,
        M.DIT: 2, M.NOC: 0, M.MFA: 0.75,
        M.CBO: 0, M.IC: 2, M.CBM: 1, M.CA: 0, M.CE: 0,
        M.LCOM: 0, M.LCOM3: 0.0, M.CAM: 1.0,
        M.DAM: 1.0, M.NPRIF: 0, M.NPRIM: 0, M.NPROM: 0,
    },
    "fix.Ext": {
        M.LOC: 5, M.LOCCOM: 0, M.NPM: 1, M.NSTAM: 0, M.NOF: 0, M.NSTAF: 0,
        M.NMC: 1, M.NMCI: 0, M.NMCE: 1,
        M.WMC: 1, M.AMC: 1.0, M.RFC: 2,
        M.DIT: 1, M.NOC: 0, M.MFA: 0.0,
        M.CBO: 0, M.IC: 0, M.CBM: 0, M.CA: 0, M.CE: 0,
        M.LCOM: 0, M.LCOM3: 0.0, M.CAM: 1.0,
        M.DAM: 1.0, M.NPRIF: 0, M.NPRIM: 0, M.NPROM: 0,
    },
    "fix.Util": {
        M.LOC: 13, M.LOCCOM: 0, M.NPM: 1, M.NSTAM: 2, M.NOF: 1, M.NSTAF: 1,
        M.NMC: 2, M.NMCI: 0, M.NMCE: 2,
        M.WMC: 3, M.AMC: 1.5, M.RFC: 4,
        M.DIT: 0, M.NOC: 0, M.MFA: 0.0,
        M.CBO: 3, M.IC: 0, M.CBM: 0, M.CA: 1, M.CE: 3,
        M.LCOM: 1, M.LCOM3: 1.0, M.CAM: 0.5,
        M.DAM: 0.0, M.NPRIF: 0, M.NPRIM: 0, M.NPROM: 1,
    },
    "fix.Empty": {
        M.LOC: 2, M.LOCCOM: 0, M.NPM: 0, M.NSTAM: 0, M.NOF: 0, M.NSTAF: 0,
        M.NMC: 0, M.NMCI: 0, M.NMCE: 0,
        M.WMC: 0, M.AMC: 0.0, M.RFC: 0,
        M.DIT: 0, M.NOC: 0, M.MFA: 0.0,
        M.CBO: 1, M.IC: 0, M.CBM: 0, M.CA: 1, M.CE: 0,
        M.LCOM: 0, M.LCOM3: 0.0, M.CAM: 1.0,
        M.DAM: 1.0, M.NPRIF: 0, M.NPRIM: 0, M.NPROM: 0,
    },
    "fix.Mixed": {
        M.LOC: 26, M.LOCCOM: 0, M.NPM: 2, M.NSTAM: 0, M.NOF: 5, M.NSTAF: 1,
        M.NMC: 1, M.NMCI: 0, M.NMCE: 1,
        M.WMC: 7, M.AMC: 1.75, M.RFC: 5,
        M.DIT: 0, M.NOC: 0, M.MFA: 0.0,
        M.CBO: 1, M.IC: 0, M.CBM: 0, M.CA: 1, M.CE: 1,
        M.LCOM: 6, M.LCOM3: 1.0, M.CAM: 0.375,
        M.DAM: 0.6, M.NPRIF: 2, M.NPRIM: 1, M.NPROM: 1,
    },
}

EXPECTED_TEST = {
    "fix.BoxTest": {
        M.T_LOC: 15, M.T_NOT: 2, M.T_NOA: 3, M.T_NMC: 7, M.T_WMC: 2, M.T_AMC: 1.0,
    },
    "fix.CircleTest": {
        M.T_LOC: 16, M.T_NOT: 2, M.T_NOA: 2, M.T_NMC: 4, M.T_WMC: 3, M.T_AMC: 1.5,
    },
    "fix.UtilTest": {
        M.T_LOC: 9, M.T_NOT: 1, M.T_NOA: 2, M.T_NMC: 3, M.T_WMC: 1, M.T_AMC: 1.0,
    },
    "fix.MixedTest": {
        M.T_LOC: 11, M.T_NOT: 1, M.T_NOA: 1, M.T_NMC: 3, M.T_WMC: 2, M.T_AMC: 1.0,
    },
    "fix.EmptyTest": {
        M.T_LOC: 6, M.T_NOT: 1, M.T_NOA: 1, M.T_NMC: 1, M.T_WMC: 1, M.T_AMC: 1.0,
    },
}

EXPECTED_PAIRS = [
    ("fix.Box", "fix.BoxTest"),
    ("fix.Circle", "fix.CircleTest"),
    ("fix.Empty", "fix.EmptyTest"),
    ("fix.Mixed", "fix.MixedTest"),
    ("fix.Util", "fix.UtilTest"),
]

# assembled class files: instruction lists chosen by hand, so NBI is exact
FIXTURE_CLASSFILES = {
    "fix.Box": [
        ("<init>", "(I)V", IMPLICIT_CTOR),
        ("grow", "(I)I", [ILOAD_1, ICONST_2, IADD, IRETURN]),
        ("log", "(I)V", [RETURN]),
    ],
    "fix.Circle": [
        ("<init>", "(D)V", IMPLICIT_CTOR),
        ("area", "()D", [ICONST_1, IRETURN]),
        ("scale", "(D)D", [ILOAD_1, ICONST_0, IADD, IRETURN]),
    ],
    "fix.Util": [
        ("<clinit>", "()V", [ICONST_2, RETURN]),
        ("measure", "(Lfix/Shape;)D", [ICONST_0, IRETURN]),
        ("tag", "(Lfix/Box;)Ljava/lang/String;", [ACONST_NULL, ARETURN]),
    ],
    "fix.Empty": [("<init>", "()V", IMPLICIT_CTOR)],
    "fix.Mixed": [
        ("<init>", "()V", IMPLICIT_CTOR),
        ("first", "(ILjava/lang/String;)V", [RETURN]),
        ("second", "(I)V", [RETURN]),
        ("third", "()Ljava/lang/String;", [ACONST_NULL, ARETURN]),
        ("fourth", "()I", [ILOAD_1, tableswitch(1, 2), ICONST_0, IRETURN]),
    ],
}

EXPECTED_NBI = {"fix.Box": 8, "fix.Circle": 9, "fix.Util": 6, "fix.Empty": 3,
                "fix.Mixed": 11}


def fixture_nbi_map() -> dict[str, int]:
    out = {}
    for name, methods in FIXTURE_CLASSFILES.items():
        out[name] = count_nbi(parse_classfile(build_class(name, methods)))
    return out


@pytest.mark.parametrize("qname", sorted(EXPECTED_CODE))
def test_code_metrics_match_hand_computation(corpus_index, qname):
    actual = compute_code_metrics(corpus_index, qname)
    for metric, expected in EXPECTED_CODE[qname].items():
        if isinstance(expected, int):
            assert actual[metric] == expected, f"{qname} {metric.column}"
        else:
            assert actual[metric] == pytest.approx(expected, abs=1e-9), (
                f"{qname} {metric.column}"
            )


@pytest.mark.parametrize("qname", sorted(EXPECTED_TEST))
def test_test_effort_metrics_match_hand_computation(corpus_index, qname):
    actual = dict(zip(SUMMARY_METRICS, corpus_index[qname].summary.values))
    for metric, expected in EXPECTED_TEST[qname].items():
        if isinstance(expected, int):
            assert actual[metric] == expected, f"{qname} {metric.column}"
        else:
            assert actual[metric] == pytest.approx(expected, abs=1e-9), (
                f"{qname} {metric.column}"
            )


def test_assembled_classfiles_give_expected_nbi():
    assert fixture_nbi_map() == EXPECTED_NBI


def test_pairing_convention(corpus_index):
    assert pair_classes(corpus_index) == EXPECTED_PAIRS


def test_extracted_records_cover_pairs_with_nbi(corpus):
    data = extract_records(corpus, pair_classes(corpus.index), fixture_nbi_map())
    assert list(zip(data.class_ids, data.test_ids)) == EXPECTED_PAIRS
    assert data.columns == INDEPENDENT_VARIABLES
    by_class = dict(zip(data.class_ids, data.records))
    for qname, expected_nbi in EXPECTED_NBI.items():
        assert by_class[qname][M.NBI] == expected_nbi
    record = by_class["fix.Mixed"]
    for metric, value in EXPECTED_CODE["fix.Mixed"].items():
        assert record[metric] == pytest.approx(value, abs=1e-9)
    for metric, value in EXPECTED_TEST["fix.MixedTest"].items():
        assert record[metric] == pytest.approx(value, abs=1e-9)


def test_extraction_without_class_files_has_no_nbi_column(corpus):
    data = extract_records(corpus, pair_classes(corpus.index))
    assert data.columns == tuple(m for m in INDEPENDENT_VARIABLES if m is not M.NBI)


def test_extraction_needs_a_class_file_for_every_paired_class(corpus):
    nbi = {name: n for name, n in fixture_nbi_map().items() if name != "fix.Box"}
    with pytest.raises(ValueError, match="^no class file for: fix.Box$"):
        extract_records(corpus, pair_classes(corpus.index), nbi)


def test_nmc_identity_holds_for_all_extracted(corpus):
    data = extract_records(corpus, pair_classes(corpus.index))
    assert (data.column(M.NMC) == data.column(M.NMCI) + data.column(M.NMCE)).all()
    assert (data.column(M.WMC) >= 0).all() and (data.column(M.RFC) >= 0).all()


def test_reextraction_is_bit_identical(corpus):
    from testability.javasrc import parse_corpus

    first = extract_records(corpus, pair_classes(corpus.index))
    again = extract_records(parse_corpus([CORPUS_DIR]), pair_classes(corpus.index))
    assert (first.class_ids, first.test_ids, first.columns) == (
        again.class_ids, again.test_ids, again.columns)
    assert first.values.tobytes() == again.values.tobytes()


def parse_each_file():
    """The fixture corpus parsed file by file in this process, in file order."""
    trees = []
    for path in find_java_files([CORPUS_DIR]):
        with open(path, encoding="utf-8") as handle:
            trees.append(parse_source(handle.read(), path))
    return trees


def test_index_is_order_independent(corpus):
    reversed_index = build_corpus_index(list(reversed(parse_each_file())))
    for qname in EXPECTED_CODE:
        assert compute_code_metrics(corpus.index, qname) == compute_code_metrics(
            reversed_index, qname
        )


def test_trees_indexed_in_process_give_the_records_of_parse_corpus(corpus):
    trees = parse_each_file()
    serial = ParsedCorpus(trees=trees, index=build_corpus_index(trees))
    pairs = pair_classes(corpus.index)
    assert pair_classes(serial.index) == pairs
    for nbi in (None, fixture_nbi_map()):
        first = extract_records(serial, pairs, nbi_by_class=nbi)
        again = extract_records(corpus, pairs, nbi_by_class=nbi)
        assert (first.class_ids, first.test_ids, first.columns) == (
            again.class_ids, again.test_ids, again.columns)
        assert first.values.tobytes() == again.values.tobytes()


def types_held(value):
    """The types of ``value`` and of everything its containers and
    dataclass fields hold, dict keys included."""
    held, stack = set(), [value]
    while stack:
        item = stack.pop()
        held.add(type(item))
        if dataclasses.is_dataclass(item):
            stack.extend(getattr(item, f.name) for f in dataclasses.fields(item))
        elif isinstance(item, dict):
            stack.extend(item.items())
        elif isinstance(item, (list, tuple, set, frozenset)):
            stack.extend(item)
    return held


def test_a_worker_result_pickles_as_plain_tuples_strings_and_float_arrays():
    result = summarize_files(find_java_files([CORPUS_DIR]))
    loaded = pickle.loads(pickle.dumps(result))
    assert loaded == result
    assert all(isinstance(summaries, list) for summaries in loaded)
    held = types_held(loaded)
    assert not held & {M, dict, set, frozenset}
    assert held <= {list, tuple, str, int, bool, type(None), array, ClassSummary}
    summaries = [summary for file_summaries in loaded for summary in file_summaries]
    assert len({id(summary.package) for summary in summaries}) == 1  # interned "fix"
    for summary in summaries:
        assert (summary.values.typecode, len(summary.values)) == ("d", len(SUMMARY_METRICS))
        shared = {id(signature) for signature, _ in summary.methods}
        assert len(shared) == len({signature for signature, _ in summary.methods})
        assert {id(signature) for signature in summary.inheritable} <= shared


def test_the_index_keeps_counts_and_no_name_collections(corpus_index):
    for qname in corpus_index.class_names():
        assert not types_held(corpus_index[qname]) & {list, set, frozenset}, qname
