"""Byte-identical output: SHA-256 digests of reports and traces, pinned.

Aim 2 keeps ``--report json`` and the CSV traces byte for byte from one
refactor to the next.  A change that moves any residual by one bit, or
any byte of the JSON layout, fails here; a change that means to do so
says why and pins the new digest.
"""

import hashlib

import pytest

from holocheck.cli import main

REPORT_DIGESTS = [
    (["--samples", "200"],
     "ca0b281f74a42557b637d673aafbec1df2103a3290075085414976592e082f7b"),
    (["--metric-exponent", "3"],
     "06339252bca7d6bf08586b6dbb2f7c31d8a75ed73d4f250b3ef86ac933fab986"),
    (["--matrix", "9007199254740993 9007199254740992 1 1", "--samples", "200"],
     "43ece7b1dfbe7b60dbe14bd5caaeae5085949e4cbf5687176aa1ddaef723ba2d"),
    (["--matrix", "1 1 1 1"],
     "a6b302fd753f52f093251ad5727d5c2297af8768c1f9f910399c26c60e602223"),
]

TRACE_DIGESTS = {
    "escape_geodesic.csv": "d467bbf74e4115cd7c0515ce1ddb79c22e27159b422b9ad3ae2e231f87ad4c15",
    "gz_transport.csv": "ad3a0377b10c9a7c1dc18bef876269d8e0da3347ce3eb05f09119fef100159a1",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("argv,digest", REPORT_DIGESTS,
                         ids=["samples_200", "exponent_3", "entries_2_53", "trace_2"])
def test_json_report_bytes(capsys, argv, digest):
    main([*argv, "--report", "json"])
    assert sha256(capsys.readouterr().out.encode()) == digest


def test_trace_bytes(tmp_path, capsys):
    # the traces depend on the matrix and the metric only, not on the samples
    assert main(["--samples", "20", "--emit-traces", str(tmp_path)]) == 0
    capsys.readouterr()
    for name, digest in TRACE_DIGESTS.items():
        assert sha256((tmp_path / name).read_bytes()) == digest, name
