"""Byte-level lock on the exact layer's command-line output.

Each case runs one CLI command in process and compares the sha256 of its
stdout with a digest recorded from the code before the blow-up, infinity,
root-finding and fraction-normalizing paths were merged into shared
`polycore` helpers.  A refactor of the exact layer (polycore, desing,
blowup, compact, atlas, sysio) must keep every digest.  A change that means
to alter an output records the new digest here and says why.

Phase-portrait SVGs are not locked here: their coordinates go through libm
`pow`, whose last bits are not guaranteed across platforms.  They stay locked
only by the benchmark's seed-1 digests in `bench/digests/`.  Region-map SVGs
are locked here: their coordinates need only correctly rounded float
arithmetic.

Spec files are also locked below the CLI: the term storage order of a
loaded field's P, Q and time factor sets the `float_terms()` order, and
with it every Newton and portrait float, so it must not move either.

The linearization of stationary points is locked below the CLI as well:
the center-manifold analysis at semi-hyperbolic points, the number of
Jacobians one `analyze` evaluates, and the agreement of exact and float
linear verdicts on small integer matrices.
"""

import argparse
import hashlib
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from phaseatlas import equilibria, polycore
from phaseatlas.cli import _System, main
from phaseatlas.desing import PolyField, cdk_poly_field
from phaseatlas.polycore import X, Y

# analyze --format json at one (a, b) per region (the appendix parameter pairs)
# and at two long decimals
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
    # long decimals, whose root polynomials have large coefficients; the
    # second has irrational roots on the blow-up divisor
    ("0.700000000001", "1/2"): "9ea333ad9c60a5329ba46011a253a072a075f766878923c61dc2183d318b9cbc",
    ("0.2000000003", "1"): "4bce58712e00b5e3ae9eb80bff5902853786d7acefcbdaa9722beffe8bedffb2",
}

# the default (human) analyze text at the appendix parameter pairs: its
# region, circle, origin-sector and infinity lines
ANALYZE_HUMAN_DIGESTS = {
    ("1", "1"): "aef61be88da549742623786a26b4eb4876aa73a94caa97a650056aa3d63c407b",
    ("1", "1/2"): "fb5c75b3055d5533add60fcf464fff5ad55eea374181daba40d94def23ad141f",
    ("1", "19/10"): "e638d82778e74633ce7a76a669c62d3c80c99a5cb92a58dce81af20739358da9",
    ("1/2", "1"): "f3ed8b07f8651f176f899bac15949f92073a4ee4a43d4e00ead40935a9f93b4a",
    ("1/2", "1/2"): "3a305091f2b4ad8dd8bba4ac36defd39366fe020d176e338f9bda8184173bdd9",
    ("1/2", "19/10"): "afef9842f94ca08a153953f8eecf4777784dd1b018c5761c2337302b923b33ef",
    ("1/5", "1"): "a7e9faeeded23c5e8e1743ba24d1212292d9022728826c1c4f1cfdd53642b5eb",
    ("1/5", "1/2"): "c6fed84f1da54b74a1a57577fbf1914f024b089894f107ad63f2b473f229b4ae",
    ("19/10", "19/10"): "08e0a46608b8e4158679681d3c0ef3d276682f1ea790809a7186e338526b62d6",
    ("5/2", "1"): "21b735cdd27ce697d829a45a8244acf580737bb2fb1e1ecac18f42f49fe3a67e",
    ("5/2", "1/2"): "93c5904c53a6b7b8965f0bcde50f2279583d156ed95f37d9fb6ed3a40c3c048b",
    ("5/2", "19/10"): "804c037a142ca690b5d4b17f60061ff23a6147b080bb654c9652d58f978f1082",
    ("6/5", "19/10"): "a2f853dbd197dc80e45dac4241f21a36cff6e9e0ac8e8cd5d2f0e9d1ba1ad32c",
    ("7/10", "1"): "7d135e0914f32ec27456e67c2b2261334bfabc5c1fd75ca897bef4bb6e791052",
    ("7/10", "1/2"): "54a63cf239bdde3b24a93dfcc92efe5a7838b412385ad7457550c184cb78a2e1",
    ("7/10", "19/10"): "d14c35a53d61970e3db70dfaf1f7e57b7a3d1a2c375d4977697eb2e4884c6d09",
}

# region --format json and --format human at the appendix parameter pairs
REGION_DIGESTS = {
    "json": {
        ("1", "1"): "5d60b775bc150150dc3c9b097c323a62c85f1fc32c56c236f1b1696addd8a167",
        ("1", "1/2"): "da3f079a33f1b873227fa1bbf15d479f17b2f16d49dd7261dd6a8d48f25abe15",
        ("1", "19/10"): "4e3a1fc21c4423118467ca033f8dd2e15d58f80dd92db499e418b6e58e41c8e7",
        ("1/2", "1"): "b05038734ca1c2b4cb19a0ebd4270171ba17901024967a1fe4019a2972b3e60d",
        ("1/2", "1/2"): "1545c460afbeac909d8f25092902185876147db1d918d9185c651adfd667f6fd",
        ("1/2", "19/10"): "e50047acdea0ac4412b870518b7d7c412d2a5575def24152fd44c6ecb77be17f",
        ("1/5", "1"): "da42c799b74cb62e3c9cc87d1f24703d924f07a20f105984581647ff1a82373a",
        ("1/5", "1/2"): "44082cc4aeae3aa5f1f780750358fc430aa39da99afe3928903c0d4842b3efb8",
        ("19/10", "19/10"): "753c3713ab2fe9c71f799690f7485ca9689514147afb90e97c3ee6a78647b312",
        ("5/2", "1"): "1bc5a4b037fa5856d89349674e57b451810a027f1e8536c2e7532657224fcf9b",
        ("5/2", "1/2"): "be3cfec0823bec533d9df647ab3038e000fc5b181b7565a97677905aef4759af",
        ("5/2", "19/10"): "4019aa20f841081d9c1db06854a32c4a78c011f36ec5733457661ae2561d557a",
        ("6/5", "19/10"): "d68fb694445cac9743ead2edffef178f0f1335f865d701b193c0cb0626fbcf2c",
        ("7/10", "1"): "93c4dff1c4a62f049ddaf3155062505c72a606c54e2bb9d9f03fc13ca13c306a",
        ("7/10", "1/2"): "89c96e3fec1a8f5f33c7263128770b402cda7b2acc7161aec6dcf9675a717274",
        ("7/10", "19/10"): "cc7eab8323725b6963c3462c949cdcfa2b0036a7f33b3aaf7c84e096bc60f999",
    },
    "human": {
        ("1", "1"): "8e246e04ca0197a2ef9ebe8be1dcc9956bae9834dd0f3acae60ed80c843ffdfe",
        ("1", "1/2"): "a7a0ad75d6eed346bb5e6f0f8709bd698f93f392356f8ea5a489daff9cd25c59",
        ("1", "19/10"): "35910d867b42d04fd0b35a741137dc1439d158fa63de31553803ab72a04f8cb7",
        ("1/2", "1"): "156ad2055968ce5e559ac81dcfbf1bfad228f3b5646d2780fcbc5fc63cc0b5a0",
        ("1/2", "1/2"): "f68c436dd138fdeb5b71ad5cd9f0feea4ee2cde36416f6c5ec01041cd48b04c6",
        ("1/2", "19/10"): "5d66f7ad5f32b7553b4aede21ed96e5f0f3db23e1093adf87983162a89bf8ece",
        ("1/5", "1"): "ebb279fb7fd2ebcf69fa37bcc273176046386cf1aa3f551facfc0e722e4f6bd6",
        ("1/5", "1/2"): "f87fd899cc566a960d2da22923d5bac933817a07a346e9669bfa8234660d3e78",
        ("19/10", "19/10"): "b46aa12d6cd47682cee6cb3454fc3d48013c05d03885ac4021c4f0d574a03d26",
        ("5/2", "1"): "55d9166b3935f4366e44f4acd70598ff49a185dd4ab9a4f4d3218e7a6d0a1fdd",
        ("5/2", "1/2"): "1ddd7ab944f089cfc502d73bbdc3411a62535703271d0aa88d3d4fdf20135804",
        ("5/2", "19/10"): "da28c6837bb0e1b6c4885d31cf5d67a22818150119ced89ef8d654506ea1aa41",
        ("6/5", "19/10"): "bf2f5127a86438199c632b0d88a8b50c88ef53ad74b46e673bd7c4509ccca718",
        ("7/10", "1"): "5ce6f6272cf59d5aeb1a617b17fc7a4265f128c70dea3625c284f5d4968bbb0d",
        ("7/10", "1/2"): "02295ff216e7e300cbf4fcaad3523301ce048a43880b0bd16ad9ccc244e73ef9",
        ("7/10", "19/10"): "2a49f1adab19efc2377619b1cbcda4faad6ef755cfa2dad4e23d51f6b1906802",
    },
}

LOTKA_VOLTERRA = "param p = 3\nx*(p - x - 2*y) ; y*(2 - x - y)\n"

# weights (2, 3), irrational divisor roots and a -x chart with even alpha
CUSP = "y ; x^2\n"

OTHER_DIGESTS = {
    "analyze-lotka-volterra": "48dc9501447d669f94648c309d65902e4097c94b63bd9ed1cc2d780c0a45ff45",
    "blowup-3/10-1": "9421ebe401aaf950fb6a0e29216af6f8df3de7df0fac11393ea1c39b09915fe8",
    # weights (1, 1): both minus charts are antipodes of the plus charts
    "blowup-7/10-1/2": "8439a0dd3ed4b65f8ac4be14d95ee1824a5a21815ff6671d74b3f73e7151b2d8",
    "infinity-3/10-1": "696cc78c6346a3bc1d8a79ff4adb20d7d0b8b3fba940c0af06335c5781f8c0be",
    "scan-20": "984beb2aef13c3112844f4c6d0d2c1d93d41900022be33a643e62b517ddea946",
    # cells in all 16 regions, with midpoints on a = 1, b = 1, a = b, (1/2, 1)
    # and the curve points (1/4, 3/2) and (3/4, 3/2)
    "scan-8": "23b5fc0fba5604cf117e28f759c2b3686a7a45ae28e33a66bcefdd90ea5ca79a",
    "region-map-8": "4aa726fe21df523592657eff818fce300dc5dc1b8c02aeac528029ac5fcf6f1b",
    "region-map-20": "e68992a6c75d0f300139fb6b7acaa1f253f948c198fb01147ebcc42725a68ee4",
    "region-map-1": "0287fa026d293541eed6b9488bb6ae3973962dbbfdfb012b0a78eefa7aef4fcc",
    # the benchmark's scan-map size, 200x200 over 0:3
    "scan-200": "3516f6afd05b6e6c5ef9cdc9c46438fda8cf025d165c79803208ba774f3001a8",
    "region-map-200": "1ed57b66c5089ef30a21a4dc9aee103e15a5c16ca0b5ec5866007445a29b57eb",
    # spec-file charts: the cdk cases reach weights (1, 1) and (1, 2) only, and
    # Lotka-Volterra's points at infinity are not those of a cdk field
    "blowup-cusp": "daccf0fee6eae7ae18eaa0f6f3e0d0863ef09cd640752f9002521ea091991ee4",
    "infinity-cusp": "fed103a9363c0ce340f8bb37ccb192d0573e0df67b5f8177ea7747beb162cf6c",
    "infinity-lotka-volterra": "09021449b9a41205042c3933ac56f27a991b65c6b5dddd89374fe191c3ab0da4",
    # recorded while the nilpotency test still differentiated P and Q
    "analyze-cusp": "2e181c5748eb081c27ceff3714f2aa766ec0cb58a3647e9c15be60b317c99723",
}


def _digest(capsys, *argv):
    assert main(list(argv)) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("a,b", sorted(ANALYZE_DIGESTS))
def test_analyze_json_digest(capsys, a, b):
    got = _digest(capsys, "analyze", "--system", "cdk", "--a", a, "--b", b, "--format", "json")
    assert got == ANALYZE_DIGESTS[(a, b)]


@pytest.mark.parametrize("a,b", sorted(ANALYZE_HUMAN_DIGESTS))
def test_analyze_human_digest(capsys, a, b):
    got = _digest(capsys, "analyze", "--system", "cdk", "--a", a, "--b", b)
    assert got == ANALYZE_HUMAN_DIGESTS[(a, b)]


@pytest.mark.parametrize(
    "fmt,a,b", [(fmt, a, b) for fmt in sorted(REGION_DIGESTS) for a, b in sorted(REGION_DIGESTS[fmt])]
)
def test_region_digest(capsys, fmt, a, b):
    got = _digest(capsys, "region", "--a", a, "--b", b, "--format", fmt)
    assert got == REGION_DIGESTS[fmt][(a, b)]


def test_spec_file_analyze_digest(capsys, tmp_path):
    spec = tmp_path / "lotka_volterra.txt"
    spec.write_text(LOTKA_VOLTERRA, encoding="utf-8")
    got = _digest(capsys, "analyze", "--system", str(spec), "--format", "json")
    assert got == OTHER_DIGESTS["analyze-lotka-volterra"]


@pytest.mark.parametrize("command", ["blowup", "infinity"])
def test_b1_text_digest(capsys, command):
    got = _digest(capsys, command, "--system", "cdk", "--a", "3/10", "--b", "1")
    assert got == OTHER_DIGESTS[f"{command}-3/10-1"]


def test_odd_weights_blowup_text_digest(capsys):
    got = _digest(capsys, "blowup", "--system", "cdk", "--a", "7/10", "--b", "1/2")
    assert got == OTHER_DIGESTS["blowup-7/10-1/2"]


@pytest.mark.parametrize(
    "command,name,text",
    [
        ("blowup", "cusp", CUSP),
        ("infinity", "cusp", CUSP),
        ("infinity", "lotka-volterra", LOTKA_VOLTERRA),
    ],
)
def test_spec_file_chart_digest(capsys, tmp_path, command, name, text):
    spec = tmp_path / f"{name}.txt"
    spec.write_text(text, encoding="utf-8")
    got = _digest(capsys, command, "--system", str(spec))
    assert got == OTHER_DIGESTS[f"{command}-{name}"]


def test_cusp_analyze_reads_the_origin_jacobian_without_diff(monkeypatch, capsys, tmp_path):
    # the nilpotency test, made twice, reads the linear coefficients, the
    # -y point at infinity is the antipode of +y, and with weights (2, 3) the
    # -y blow-up chart is the antipode of +y; neither ±y chart has a divisor
    # point at u = 0, and their others are not linearized: 12 differentiations
    # (the finder's Newton step, the U2 chart and the +x blow-up chart), where
    # the +y chart's irrational divisor point made it 16
    calls = []
    diff = polycore.BiPoly.diff
    monkeypatch.setattr(polycore.BiPoly, "diff", lambda self, var: calls.append(var) or diff(self, var))
    spec = tmp_path / "cusp.txt"
    spec.write_text(CUSP, encoding="utf-8")
    got = _digest(capsys, "analyze", "--system", str(spec), "--format", "json")
    assert got == OTHER_DIGESTS["analyze-cusp"]
    assert len(calls) == 12


SCANS = {
    "20": ("--resolution", "20"),
    "200": ("--resolution", "200"),
    "8": ("--a-range", "1/8:17/8", "--b-range", "1/8:17/8", "--resolution", "8"),
    "1": ("--a-range", "1/2:3/2", "--b-range", "1/2:3/2", "--resolution", "1"),
}


def test_scan_digest(capsys):
    got = _digest(capsys, "scan", *SCANS["20"])
    assert got == OTHER_DIGESTS["scan-20"]


def test_scan_at_the_benchmark_size_digest(capsys):
    got = _digest(capsys, "scan", *SCANS["200"])
    assert got == OTHER_DIGESTS["scan-200"]


def test_scan_on_every_locus_digest(capsys):
    got = _digest(capsys, "scan", *SCANS["8"])
    assert got == OTHER_DIGESTS["scan-8"]


@pytest.mark.parametrize("name", sorted(SCANS))
def test_region_map_digest(capsys, tmp_path, name):
    scan = tmp_path / "scan.json"
    assert main(["scan", *SCANS[name], "-o", str(scan)]) == 0
    got = _digest(capsys, "portrait", "--scan-map", str(scan))
    assert got == OTHER_DIGESTS[f"region-map-{name}"]


# the four spec systems of the benchmark at fixed parameters, decimal and
# fraction literals both
SPECS = {
    "cdk": "param a = 7/10\nparam b = 0.5\nx*y/(x^2+y^2) - a*x ; y^2/(x^2+y^2) - b*y + b - 1\n",
    "competition": "param p = 2.75\nx*(p-x-2*y) ; y*(2-x-y)\n",
    "rotation": "param k = 1/3\ny/(1+x^2) ; -x/(1+y^2) - k*y\n",
    "cubic": "param c = 1.5\nx - c*x^3 ; -y\n",
}

FIELD_DIGESTS = {
    "cdk": "6d0a714d17f9b9c9b3061a3e4f5376a2e3fc3a327d25ffc225470fbc35f575c8",
    "competition": "6351b13bdccc18a604d7729813859a580a60bd525ce94c99ecd63c0c67d0372f",
    "rotation": "4cbe069189ae976a4ab133e4018ea698ec56598a9917fed5215b0c6a9d594aca",
    "cubic": "90ea8aad464d0fc957700e564e9b51ba6d38a928d14ab78740cb70d98e7bea8c",
}


def _load_spec(tmp_path, name):
    spec = tmp_path / f"{name}.txt"
    spec.write_text(SPECS[name], encoding="utf-8")
    return _System(argparse.Namespace(system=str(spec)))


@pytest.mark.parametrize("name", sorted(SPECS))
def test_spec_field_storage_order_digest(tmp_path, name):
    f = _load_spec(tmp_path, name).field
    text = "\n".join(repr(list(p)) for p in (f.P, f.Q, f.time_factor))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == FIELD_DIGESTS[name]


def test_spec_load_reduces_each_side_once(count_calls, tmp_path):
    counts = count_calls((polycore.reduce_fraction,))
    _load_spec(tmp_path, "cdk")
    assert counts == {"reduce_fraction": 2}


# center-manifold analyses at semi-hyperbolic points: cdk s2 on a = 1, the
# normal forms (∓x³, ∓y) and the saddle-node (x², -y) at the origin, and a
# point off the origin whose eigenbasis is not the coordinate axes
SEMIHYPERBOLIC_CASES = {
    "cdk-1-19/10-s2": (lambda: cdk_poly_field(1, Fraction(19, 10)), (0, 1)),
    "cdk-1-1/2-s2": (lambda: cdk_poly_field(1, Fraction(1, 2)), (0, 1)),
    "-x3,-y": (lambda: PolyField(-(X**3), -Y), (0, 0)),
    "x3,y": (lambda: PolyField(X**3, Y), (0, 0)),
    "x3,-y": (lambda: PolyField(X**3, -Y), (0, 0)),
    "x2,-y": (lambda: PolyField(X**2, -Y), (0, 0)),
    "skew": (
        lambda: PolyField(3 * X - 6 * Y + Y**3, X - 2 * Y + X**3).shifted(
            Fraction(1, 3), Fraction(-1, 2)
        ),
        (Fraction(-1, 3), Fraction(1, 2)),
    ),
}

SEMIHYPERBOLIC_DIGESTS = {
    "cdk-1-19/10-s2": "a1918b227f3ff38374b27cba4350dd6aea611059d5397adfbde200421308b9ba",
    "cdk-1-1/2-s2": "8c3ad8494b7aa873fd1c2278f2ace107c086d401c11863be71cf87f35f7b9a54",
    "-x3,-y": "cfeececdc8df0f283350d93cfa4b531837c2114012f3cb90490c40ad867ad025",
    "x3,y": "832b13d3162faeb0e34d3e40e8e1952d3472966a502ea349584311761444b750",
    "x3,-y": "22711c48806ae4553b6e8ca7096ab583072fab06afc3d2c240f7864204332233",
    "x2,-y": "b25a682a2f115bc9d31cb22ac38706249875a8db55c97ed2279cadbe5ad5bde0",
    "skew": "243a0c28dce7bc0d242f65658e71113f382184f5a7559c828e6dd3d596b66efb",
}


@pytest.mark.parametrize("name", sorted(SEMIHYPERBOLIC_CASES))
def test_semihyperbolic_analysis_digest(name):
    field, z = SEMIHYPERBOLIC_CASES[name]
    text = repr(equilibria.semihyperbolic_analysis(field(), z))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SEMIHYPERBOLIC_DIGESTS[name]


def test_analyze_evaluates_each_jacobian_once(count_calls, capsys):
    counts = count_calls((equilibria.jacobian_at,))
    assert main(["analyze", "--a", "7/10", "--b", "1/2", "--format", "json"]) == 0
    # 5 points: (0, 0) and (0, 1), the +y divisor point (the -y one is its
    # antipode, ±x have no real divisor roots) and the U1 and U2 points at
    # infinity (V1 and V2 are their antipodes); 6 while -y was built
    assert counts["jacobian_at"] == 5


def test_field_is_differentiated_once():
    f = cdk_poly_field(Fraction(7, 10), Fraction(1, 2))
    assert f.jacobian_polys() is f.jacobian_polys()


_small = st.integers(min_value=-6, max_value=6)


@settings(max_examples=300, deadline=None)
@given(st.tuples(st.tuples(_small, _small), st.tuples(_small, _small)))
def test_exact_and_float_linear_verdicts_agree(J):
    exact = equilibria.classify_linear(J)
    approx = equilibria.classify_linear(tuple(tuple(float(v) for v in row) for row in J))
    assert not exact.boundary
    if not approx.boundary:
        assert exact == approx
