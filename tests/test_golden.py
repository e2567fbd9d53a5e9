"""Golden stdout: the sha256 of each command's output is pinned.

Every refactor must leave these bytes unchanged.  The input file holds,
for n = 1 to 10, the two constant tables, a sparse balanced table
(ANF x_n, plus x1*x2 from n = 3) and a dense balanced table (x_n plus a
fixed pseudo-random function of the other qubits).

Left out on purpose: `entangle --format json` purities and original-mode
`working_qubit_purity` print full-precision floats that go through
`matmul`, whose last bits depend on the CPU's BLAS kernel.
"""

from __future__ import annotations

import hashlib

import pytest

from djphase.cli import main


def _sparse(n: int, i: int) -> int:
    return (i & 1) ^ (n >= 3 and (i >> (n - 2)) & 3 == 3)


def _dense(n: int, i: int) -> int:
    # x_n XOR g(x1 .. x_{n-1}) is balanced for every g.
    return (i & 1) ^ ((((i >> 1) + 1) * 0x9E3779B1 >> 13) & 1)


def tables() -> list[str]:
    rows = []
    for n in range(1, 11):
        size = 1 << n
        rows += ["0" * size, "1" * size]
        rows += ["".join(str(int(rule(n, i))) for i in range(size)) for rule in (_sparse, _dense)]
    return rows


GOLDEN = {
    "synth --truth-file {file}":
        "2c2ef3061d12c6c8d10df4078945c9980c2576147eb27939a70c359cbf5b8c6b",
    "synth --truth-file {file} --format json":
        "f0710f5e61333b5c1acc7e0e220cc1fbda735769251c9d37f76e04da5270de9e",
    "synth --truth 01010110":
        "0b6acfb68b8a4a8072f99207fc35e04d98fc97b5c238c58c8bf50be0e434cd83",
    "run --truth-file {file}":
        "156e22cf40ab5d8e9d293758a9340efde88b91ef4e86498d1dac59a9348238e2",
    "run --truth-file {file} --format json --shots 300 --seed 7":
        "59335f09a8af8eeefec72e4c89c53421c59560b37af78b8ffadcd7486083f860",
    "run --truth-file {file} --mode classical --format json":
        "244a17c9b47356cdb538d4f2cf8b045862d719fe44da4bcb4f386ea65c66687e",
    "enumerate -n 2":
        "ee3478ee3a6a5bada1bf029057edccf932b0810e1a0465b0594716af0f31e142",
    "enumerate -n 3":
        "68786b255e8f2efec52a795c6b32177e768b5ae43e73ef418db4542bb208d3ed",
    "enumerate -n 4":
        "dda2615cbd45f5d2fe359a0acea3d61f2732cfde67bb99fb8a45462c73db0a4a",
    "enumerate -n 2 --format json":
        "80218bf55045cfd2416f82dfeec7b1064980268ef15efd23e44c9f80feb0a624",
    "enumerate -n 3 --format json":
        "f43b97e7d622b7c18d66c3c12c1b9ababed0d46a5d51db2426020ea6d3268f61",
    "enumerate -n 4 --format json":
        "a15b3139de8d9faa3595bca8651165728a1ecde4bfcc6abb69f67c8d347dd89d",
    "entangle -n 2":
        "d283317cfd485112b51f84cecc4fa148415b89e49f343bb8d4c29dcb5c674193",
    "entangle -n 3":
        "9a4530a6cffeab315009714a44fa340e98456996ee2e9781825718dba58e5ee9",
    "entangle -n 4":
        "211fd9d392bd52782e5e61d08a913c94740290be4f93401a03e2a2817880002c",
    "verify --json":
        "adb78edf0d068a71f7d2a4225d9fc6307b2416964f7b6ddc19306bc1734abd1f",
}


@pytest.mark.parametrize("command", list(GOLDEN))
def test_stdout_digest(command, capsys, tmp_path):
    path = tmp_path / "tables.txt"
    path.write_text("\n".join(tables()) + "\n", encoding="utf-8")
    code = main([arg.format(file=path) for arg in command.split()])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]
