from importlib import resources

import pytest
from hypothesis import settings

from vassiliev import bundled_knot_table, parse_gauss_code
from vassiliev.errors import VassilievError

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")

TREFOIL = "O1+ U2+ O3+ U1+ O2+ U3+"


def outcome(call):
    """What call() returns, or the type and message of the package error
    it raises."""
    try:
        return call()
    except VassilievError as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="session")
def corpus():
    return bundled_knot_table()


@pytest.fixture
def trefoil():
    return parse_gauss_code(TREFOIL)


@pytest.fixture
def doubled_v2_dir(tmp_path):
    """A patterns directory whose v2.pat counts its pattern twice; the
    two v3 files are copies of the bundled ones."""
    bundled = resources.files("vassiliev") / "patterns"
    for name in ("v3_pv.pat", "v3_theorem.pat"):
        (tmp_path / name).write_text(bundled.joinpath(name).read_text(encoding="utf-8"))
    (tmp_path / "v2.pat").write_text("2 0 1h 2t 1t 2h\n")
    return tmp_path
