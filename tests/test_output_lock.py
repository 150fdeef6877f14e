"""Byte-level lock on the exact layer's command-line output.

Each case runs one CLI command in process and compares the sha256 of its
stdout with a digest recorded from the code before the blow-up, infinity,
root-finding and fraction-normalizing paths were merged into shared
`polycore` helpers.  A refactor of the exact layer (polycore, desing,
blowup, compact, atlas, sysio) must keep every digest.  A change that means
to alter an output records the new digest here and says why.

Portrait SVGs are not locked here: their coordinates go through libm `pow`,
whose last bits are not guaranteed across platforms.  They stay locked only
by the benchmark's seed-1 digests in `bench/digests/`.
"""

import hashlib

import pytest

from phaseatlas.cli import main

# analyze --format json at one (a, b) per region: the appendix parameter pairs
ANALYZE_DIGESTS = {
    ("5/2", "1/2"): "5f7139cda84c7be42e3b0f15c946dd06c7993bf26364fb30f6bebdee23152840",
    ("1", "1/2"): "63e4e976bca46bb9a10f29e0c8630476c6c03f4bcc2a9d400bc28d50835e665a",
    ("7/10", "1/2"): "c6065b9a02a32184bfe25cbeb7d164593b68bf6a498fd0c34bad1c1717e93e22",
    ("1/2", "1/2"): "dc9a255e144752593549d28340f00907919b407de51bd40f734318404e68b42f",
    ("1/5", "1/2"): "631b0fe92ce202e81629384180d3212db78aecbf183544778505232799a9487c",
    ("1", "1"): "0d2dbc94f808c0664f4c939c46b1b989b26e35a80b78f2db8c01783afafa85f3",
    ("1/5", "1"): "d2f99e9f035011112e5ddd1c6eaf613661398d7f337283fd58f2cc4ed6c9b2e8",
    ("1/2", "1"): "356bebf7eaf376b829c73efa1c285b5bf8eaec6c0092873cdeb20ae728d68541",
    ("7/10", "1"): "597ef15d042a55da90d03b8572fe1d6e1de6eb438750ba258e2263457b452e3c",
    ("5/2", "1"): "02b080ccabb19d9f61f236f7648102ee1ba3c8876e5d544ffcb3849942435c8f",
    ("1/2", "19/10"): "a3f76fb4d50db5a34c25a24d77755b426479629a2c472a54b459b74d82af0dc1",
    ("7/10", "19/10"): "363478e0a85e4806518564ad2ba9851376a71b433bb530a54f952124c746ba79",
    ("1", "19/10"): "9973614ac8cbe32bff71f85245679d16173b912a245e50943b65055e68701dbe",
    ("6/5", "19/10"): "d9b12f09bc201167f6baac06c222d2c811601f99ca2a327f8481c57e092e4418",
    ("19/10", "19/10"): "dd5bb5d61597cd517facfef705ef5ef1ca8ee3de7fb1206c45cbdc310bcd462d",
    ("5/2", "19/10"): "708c524ea14ea149eb5d1877ad614b27c1f18973f0aa4f30f6bffd0ced63ce7c",
}

LOTKA_VOLTERRA = "param p = 3\nx*(p - x - 2*y) ; y*(2 - x - y)\n"

OTHER_DIGESTS = {
    "analyze-lotka-volterra": "48dc9501447d669f94648c309d65902e4097c94b63bd9ed1cc2d780c0a45ff45",
    "blowup-3/10-1": "00db00299d410d5046787f6bb8bd3ed69c7586fb42884c6f556475f1f2322847",
    "infinity-3/10-1": "696cc78c6346a3bc1d8a79ff4adb20d7d0b8b3fba940c0af06335c5781f8c0be",
    "scan-20": "984beb2aef13c3112844f4c6d0d2c1d93d41900022be33a643e62b517ddea946",
}


def _digest(capsys, *argv):
    assert main(list(argv)) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("a,b", sorted(ANALYZE_DIGESTS))
def test_analyze_json_digest(capsys, a, b):
    got = _digest(capsys, "analyze", "--system", "cdk", "--a", a, "--b", b, "--format", "json")
    assert got == ANALYZE_DIGESTS[(a, b)]


def test_spec_file_analyze_digest(capsys, tmp_path):
    spec = tmp_path / "lotka_volterra.txt"
    spec.write_text(LOTKA_VOLTERRA, encoding="utf-8")
    got = _digest(capsys, "analyze", "--system", str(spec), "--format", "json")
    assert got == OTHER_DIGESTS["analyze-lotka-volterra"]


@pytest.mark.parametrize("command", ["blowup", "infinity"])
def test_b1_text_digest(capsys, command):
    got = _digest(capsys, command, "--system", "cdk", "--a", "3/10", "--b", "1")
    assert got == OTHER_DIGESTS[f"{command}-3/10-1"]


def test_scan_digest(capsys):
    got = _digest(capsys, "scan", "--resolution", "20")
    assert got == OTHER_DIGESTS["scan-20"]
