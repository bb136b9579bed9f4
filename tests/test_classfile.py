import io
import zipfile

import pytest
from classfile_builder import (
    ALOAD_0,
    DUP,
    ICONST_0,
    ICONST_1,
    IMPLICIT_CTOR,
    IRETURN,
    NOP,
    POP,
    RETURN,
    assemble,
    bipush,
    build_class,
    goto,
    iinc,
    invokespecial,
    invokestatic,
    lookupswitch,
    sipush,
    tableswitch,
    wide_iinc,
)

from testability import classfile
from testability.classfile import (
    MalformedClassFile,
    UnsupportedMajorVersion,
    count_nbi,
    decode_instruction_offsets,
    nbi_for_paths,
    parse_classfile,
)

# three disassembler-verified fixtures: the instruction streams below are
# assembled from explicit opcode lists, so the expected per-method counts
# are exact by construction
TRIVIAL = build_class(
    "fixture.Trivial",
    [("<init>", "()V", IMPLICIT_CTOR), ("m", "()V", [RETURN])],
)

SWITCHY_MAIN = [
    bipush(7),                 # 1
    tableswitch(1, 3),         # 2: variable length, 3 jump entries
    NOP,                       # 3
    lookupswitch([5, 9, 42]),  # 4: variable length, 3 pairs
    iinc(1, 1),                # 5
    wide_iinc(300, -2),        # 6
    sipush(1000),              # 7
    goto(-3),                  # 8
    RETURN,                    # 9
]
SWITCHY = build_class(
    "fixture.Switchy",
    [("<init>", "()V", IMPLICIT_CTOR), ("pick", "(I)V", SWITCHY_MAIN)],
)

ABSTRACTY = build_class(
    "fixture.Iface",
    [("ping", "()V", None), ("pong", "(I)I", None)],
)

STACKY = build_class(
    "fixture.Stacky",
    [
        ("<init>", "()V", IMPLICIT_CTOR),
        ("churn", "()I", [ICONST_0, ICONST_1, DUP, POP, ALOAD_0,
                          invokespecial(), invokestatic(), IRETURN]),
    ],
)


def test_trivial_void_method_is_single_return():
    summary = parse_classfile(TRIVIAL)
    assert summary.class_name == "fixture.Trivial"
    by_name = {m.name: m.instruction_count for m in summary.methods}
    assert by_name == {"<init>": 3, "m": 1}
    assert count_nbi(summary) == 4


def test_variable_length_instructions_count_as_one_each():
    summary = parse_classfile(SWITCHY)
    by_name = {m.name: m.instruction_count for m in summary.methods}
    assert by_name["pick"] == len(SWITCHY_MAIN) == 9
    assert count_nbi(summary) == 12


def test_methods_without_code_have_count_zero():
    summary = parse_classfile(ABSTRACTY)
    assert [m.instruction_count for m in summary.methods] == [0, 0]
    assert count_nbi(summary) == 0


def test_stack_and_invoke_opcodes():
    summary = parse_classfile(STACKY)
    by_name = {m.name: m.instruction_count for m in summary.methods}
    assert by_name["churn"] == 8


def test_decode_boundaries_are_exact():
    # decoding must consume exactly code_length bytes for every stream
    for instructions in ([RETURN], SWITCHY_MAIN, IMPLICIT_CTOR,
                         [tableswitch(0, 0), RETURN],
                         [NOP, NOP, NOP, lookupswitch([1]), RETURN]):
        code = assemble(instructions)
        offsets = decode_instruction_offsets(code)
        assert len(offsets) == len(instructions)
        assert offsets[0] == 0


def test_truncated_stream_is_malformed():
    code = assemble([bipush(7)])[:-1]
    with pytest.raises(MalformedClassFile):
        decode_instruction_offsets(code)


def test_bad_magic_is_malformed():
    with pytest.raises(MalformedClassFile, match="magic"):
        parse_classfile(b"\x00\x01\x02\x03" + b"\x00" * 16)


def test_truncated_pool_is_malformed():
    with pytest.raises(MalformedClassFile):
        parse_classfile(TRIVIAL[:20])


def test_major_version_ceiling(monkeypatch):
    too_new = build_class("fixture.New", [("m", "()V", [RETURN])], major=99)
    with pytest.raises(UnsupportedMajorVersion):
        parse_classfile(too_new)
    monkeypatch.setattr(classfile, "MAJOR_CEILING", 99)
    parse_classfile(too_new)  # the check reads the module's ceiling


def test_parse_is_deterministic():
    assert parse_classfile(SWITCHY) == parse_classfile(SWITCHY)


def test_jar_traversal(tmp_path):
    jar = tmp_path / "bundle.jar"
    with zipfile.ZipFile(jar, "w") as archive:
        archive.writestr("fixture/Trivial.class", TRIVIAL)
        archive.writestr("fixture/Switchy.class", SWITCHY)
        archive.writestr("README.txt", "not a class")
    nbi = nbi_for_paths([str(jar)])
    assert nbi == {"fixture.Trivial": 4, "fixture.Switchy": 12}


def test_directory_traversal(tmp_path):
    (tmp_path / "fixture").mkdir()
    (tmp_path / "fixture" / "Stacky.class").write_bytes(STACKY)
    nbi = nbi_for_paths([str(tmp_path)])
    assert nbi == {"fixture.Stacky": 11}
