"""JVM class file parser: exact bytecode instruction counts per method.

Decodes the constant pool, method table, and each Code attribute. The
three variable-length instructions (tableswitch, lookupswitch, wide) are
handled per the class-file format, so instruction boundaries are exact:
the decoded stream always ends exactly at code_length. A switch counts as
one instruction regardless of its padding and branch table size, matching
disassembler conventions.
"""

from __future__ import annotations

import os
import struct
import zipfile
from dataclasses import dataclass

MAGIC = 0xCAFEBABE

#: Highest class-file major version accepted (Java 21).
MAJOR_CEILING = 65


class ClassFileError(ValueError):
    """A class file that cannot be read; ``nbi_for_paths`` names where it is."""


class MalformedClassFile(ClassFileError):
    pass


class UnsupportedMajorVersion(ClassFileError):
    def __init__(self, major: int, ceiling: int):
        self.major = major
        super().__init__(f"class file major version {major} exceeds ceiling {ceiling}")


@dataclass(frozen=True)
class MethodSummary:
    name: str
    descriptor: str
    instruction_count: int  # 0 for abstract/native methods (no Code)


@dataclass(frozen=True)
class ClassFileSummary:
    class_name: str  # dotted form
    major_version: int
    methods: tuple[MethodSummary, ...]


# fixed operand byte counts by opcode (beyond the opcode byte itself)
_FIXED_OPERANDS: dict[int, int] = {}
for _op in range(0x00, 0x10):
    _FIXED_OPERANDS[_op] = 0  # nop, const pushes
_FIXED_OPERANDS.update({0x10: 1, 0x11: 2, 0x12: 1, 0x13: 2, 0x14: 2})  # push/ldc
for _op in range(0x15, 0x1A):
    _FIXED_OPERANDS[_op] = 1  # iload..aload
for _op in range(0x1A, 0x36):
    _FIXED_OPERANDS[_op] = 0  # xload_n, array loads
for _op in range(0x36, 0x3B):
    _FIXED_OPERANDS[_op] = 1  # istore..astore
for _op in range(0x3B, 0x60):
    _FIXED_OPERANDS[_op] = 0  # xstore_n, array stores, stack ops
for _op in range(0x60, 0x84):
    _FIXED_OPERANDS[_op] = 0  # arithmetic
_FIXED_OPERANDS[0x84] = 2  # iinc
for _op in range(0x85, 0x99):
    _FIXED_OPERANDS[_op] = 0  # conversions, comparisons
for _op in range(0x99, 0xA9):
    _FIXED_OPERANDS[_op] = 2  # branches, goto, jsr
_FIXED_OPERANDS[0xA9] = 1  # ret
for _op in range(0xAC, 0xB2):
    _FIXED_OPERANDS[_op] = 0  # returns
_FIXED_OPERANDS.update({
    0xB2: 2, 0xB3: 2, 0xB4: 2, 0xB5: 2,  # get/put field/static
    0xB6: 2, 0xB7: 2, 0xB8: 2,  # invokevirtual/special/static
    0xB9: 4, 0xBA: 4,  # invokeinterface, invokedynamic
    0xBB: 2, 0xBC: 1, 0xBD: 2, 0xBE: 0, 0xBF: 0,
    0xC0: 2, 0xC1: 2, 0xC2: 0, 0xC3: 0,
    0xC5: 3, 0xC6: 2, 0xC7: 2, 0xC8: 4, 0xC9: 4,
})

_TABLESWITCH, _LOOKUPSWITCH, _WIDE = 0xAA, 0xAB, 0xC4
_WIDE_IINC = 0x84


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.at = 0

    def take(self, count: int) -> bytes:
        if self.at + count > len(self.data):
            raise MalformedClassFile("truncated class file")
        out = self.data[self.at : self.at + count]
        self.at += count
        return out

    def u1(self) -> int:
        return self.take(1)[0]

    def u2(self) -> int:
        return struct.unpack(">H", self.take(2))[0]

    def u4(self) -> int:
        return struct.unpack(">I", self.take(4))[0]


def _read_constant_pool(reader: _Reader) -> dict[int, object]:
    count = reader.u2()
    pool: dict[int, object] = {}
    index = 1
    while index < count:
        tag = reader.u1()
        if tag == 1:  # Utf8
            length = reader.u2()
            pool[index] = reader.take(length).decode("utf-8", errors="replace")
        elif tag in (3, 4):  # Integer, Float
            reader.take(4)
        elif tag in (5, 6):  # Long, Double: occupy two slots
            reader.take(8)
            index += 1
        elif tag == 7:  # Class
            pool[index] = ("class", reader.u2())
        elif tag == 8:  # String
            reader.take(2)
        elif tag in (9, 10, 11, 12, 17, 18):  # refs, NameAndType, (Invoke)Dynamic
            reader.take(4)
        elif tag == 15:  # MethodHandle
            reader.take(3)
        elif tag in (16, 19, 20):  # MethodType, Module, Package
            reader.take(2)
        else:
            raise MalformedClassFile(f"unknown constant pool tag {tag} at index {index}")
        index += 1
    return pool


def _utf8(pool: dict[int, object], index: int) -> str:
    value = pool.get(index)
    if not isinstance(value, str):
        raise MalformedClassFile(f"constant pool index {index} is not Utf8")
    return value


def _class_name(pool: dict[int, object], index: int) -> str:
    value = pool.get(index)
    if not (isinstance(value, tuple) and value[0] == "class"):
        raise MalformedClassFile(f"constant pool index {index} is not a Class")
    return _utf8(pool, value[1]).replace("/", ".")


def decode_instruction_offsets(code: bytes) -> list[int]:
    """Byte offset of every instruction; total decoded size must be exact."""
    offsets: list[int] = []
    at = 0
    n = len(code)
    while at < n:
        offsets.append(at)
        op = code[at]
        if op == _WIDE:
            if at + 1 >= n:
                raise MalformedClassFile("truncated wide instruction")
            at += 6 if code[at + 1] == _WIDE_IINC else 4
        elif op in (_TABLESWITCH, _LOOKUPSWITCH):
            base = at + 1
            pad = (4 - base % 4) % 4
            at = base + pad
            if op == _TABLESWITCH:
                if at + 12 > n:
                    raise MalformedClassFile("truncated tableswitch")
                low, high = struct.unpack(">ii", code[at + 4 : at + 12])
                if high < low:
                    raise MalformedClassFile("tableswitch high < low")
                at += 12 + (high - low + 1) * 4
            else:
                if at + 8 > n:
                    raise MalformedClassFile("truncated lookupswitch")
                npairs = struct.unpack(">i", code[at + 4 : at + 8])[0]
                if npairs < 0:
                    raise MalformedClassFile("negative lookupswitch pair count")
                at += 8 + npairs * 8
        else:
            operands = _FIXED_OPERANDS.get(op)
            if operands is None:
                raise MalformedClassFile(f"unknown opcode 0x{op:02x} at offset {at}")
            at += 1 + operands
    if at != n:
        raise MalformedClassFile("instruction stream overruns code_length")
    return offsets


def _skip_attributes(reader: _Reader) -> None:
    for _ in range(reader.u2()):
        reader.take(2)
        reader.take(reader.u4())


def parse_classfile(data: bytes) -> ClassFileSummary:
    reader = _Reader(data)
    if reader.u4() != MAGIC:
        raise MalformedClassFile("bad magic: not a class file")
    reader.u2()  # minor
    major = reader.u2()
    if major > MAJOR_CEILING:
        raise UnsupportedMajorVersion(major, MAJOR_CEILING)
    pool = _read_constant_pool(reader)
    reader.u2()  # access flags
    this_class = _class_name(pool, reader.u2())
    reader.u2()  # super class
    for _ in range(reader.u2()):  # interfaces
        reader.take(2)
    for _ in range(reader.u2()):  # fields
        reader.take(6)
        _skip_attributes(reader)
    methods: list[MethodSummary] = []
    for _ in range(reader.u2()):
        reader.take(2)
        name = _utf8(pool, reader.u2())
        descriptor = _utf8(pool, reader.u2())
        count = 0
        for _ in range(reader.u2()):
            attr_name = _utf8(pool, reader.u2())
            length = reader.u4()
            payload = _Reader(reader.take(length))
            if attr_name == "Code":
                payload.take(4)  # max_stack, max_locals
                code_length = payload.u4()
                code = payload.take(code_length)
                count = len(decode_instruction_offsets(code))
        methods.append(MethodSummary(name, descriptor, count))
    _skip_attributes(reader)
    return ClassFileSummary(
        class_name=this_class, major_version=major, methods=tuple(methods)
    )


def count_nbi(summary: ClassFileSummary) -> int:
    """Total instructions across all methods, constructors included."""
    return sum(m.instruction_count for m in summary.methods)


def nbi_for_paths(paths: list[str]) -> dict[str, int]:
    """Map dotted class name -> NBI for .class files, directories, and jars.

    A ClassFileError names the file it is about: a path, or a jar and its
    entry as ``jar!entry``.
    """
    out: dict[str, int] = {}

    def add(data: bytes, where: str) -> None:
        try:
            summary = parse_classfile(data)
        except ClassFileError as exc:
            raise ClassFileError(f"{where}: {exc}") from None
        out[summary.class_name] = count_nbi(summary)

    def add_file(path: str) -> None:
        with open(path, "rb") as handle:
            add(handle.read(), path)

    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()
                for name in sorted(filenames):
                    if name.endswith(".class"):
                        add_file(os.path.join(dirpath, name))
        elif path.endswith(".jar") or path.endswith(".zip"):
            try:
                with zipfile.ZipFile(path) as archive:
                    for entry in sorted(archive.namelist()):
                        if entry.endswith(".class"):
                            add(archive.read(entry), f"{path}!{entry}")
            except zipfile.BadZipFile as exc:
                raise ClassFileError(f"{path}: not a readable zip archive: {exc}") from None
        else:
            add_file(path)
    return out
