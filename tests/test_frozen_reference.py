"""The benchmark's frozen reference, pinned byte for byte.

`perfbench/refnlo/` is the copy of the package that every benchmark op is
timed against, and `perfbench/reference/` holds the outputs the benchmark
oracles compare with.  Neither may change, so the sha256 of every file in
them is pinned here; a file added or removed fails too.
"""

import hashlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

FROZEN_SHA256 = {
    "reference/certify_digests.json":
        "70e979e9c114a4bb6684b8116979e2428766f37326b1a70b4f88c7f80d115fe9",
    "reference/orders.json":
        "27a394d284f6a3c99ff215bf32d431bc89b4bf1e2e5667602e5dd6c7dd9d138a",
    "refnlo/__init__.py": "50673d6253f9d94fe645d5c2555eacca036980e3f140a61ed665b2bf5556c780",
    "refnlo/alexander.py": "5d0c10eef07781ffef554b6d2b1f8edf479f23fdb55760f4bb1c8d007dce5620",
    "refnlo/certificates.py": "7361c99c92bb813687fb88296ce95a83a4073d448f83a99b44108f429224830f",
    "refnlo/cli.py": "e5f47d8eb3eaad0150fce77bd7573bc91d63a3537476d5e3231b9c0dcef662e9",
    "refnlo/cosets.py": "ede22991424bebd97830c9eccacd757f492707a3ad7dbd0d642797e492839f56",
    "refnlo/families.py": "75595dcfc15b13ab8a7822f2ffb41877d8c66ff83bfc7ceea6d0caea124d1de7",
    "refnlo/homology.py": "8ca47c54375fb5328e4f38b5a373fe78e4c9e8fc75e5516fa45208ad0fdf7293",
    "refnlo/presentation.py": "36fdf30a1087859163fbb7e16f7a5068aec37fd26ee7559babe74502544515b6",
    "refnlo/serialize.py": "363d69bd2bd3d84778a95d11466baacbbbbab569d3aea3aa4acfd3087e6dd0c5",
    "refnlo/sweep.py": "2101f14ae7b145ffe79ebe36e8e7e395b685dd76c24ea4668856fa70197ebffb",
    "refnlo/words.py": "8f7075d37280aef534db0fe8a36d3b8d8e1bcbc9f24bfc50acf99abb81235058",
}


def test_frozen_reference_files_are_unchanged():
    found = {
        path.relative_to(PERFBENCH).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for directory in ("refnlo", "reference")
        for path in sorted((PERFBENCH / directory).rglob("*"))
        if path.is_file() and "__pycache__" not in path.parts
    }
    assert found == FROZEN_SHA256
