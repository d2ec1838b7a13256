"""The package's six records: their construction, equality, immutability and
repr, and a cold import that loads no module of ``dataclasses``' import graph."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shefferpoly
from shefferpoly import Check, MixedFamily, get_pair
from shefferpoly.mixed import REDUCTIONS, _Reduction
from shefferpoly.pairs import PairSeries, ResolvedPair, ShefferPair

# modules that only ``dataclasses`` (through ``inspect``) brings in
_HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_cold_import_loads_no_dataclasses_graph():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   [str(Path(shefferpoly.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    code = ("import json, sys; import shefferpoly; "
            f"print(json.dumps([m for m in {list(_HEAVY)!r} if m in sys.modules]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def _records():
    """Each record kind as (record, positional rebuild, keyword rebuild, a
    field): the rebuilds are separate records with the same fields, the
    defaults left out of the positional one."""
    p = get_pair("laguerre")
    res = p.resolved(4)
    built = p.build(4)
    red = REDUCTIONS["ex1"]

    def detail():
        return "w"

    return {
        "Check": (Check("s", "c", False, detail, 3),
                  Check("s", "c", False, "w", 3),
                  Check(suite="s", name="c", passed=False, detail=detail, n=3), "passed"),
        "Check-defaults": (Check("s", "c", True),
                           Check("s", "c", True, None),
                           Check(suite="s", name="c", passed=True, detail=None, n=None), "n"),
        "PairSeries": (built,
                       PairSeries(built.g, built.f, built.claimed_A, built.claimed_H),
                       PairSeries(g=built.g, f=built.f, claimed_A=built.claimed_A,
                                  claimed_H=built.claimed_H), "claimed_A"),
        "ResolvedPair": (res,
                         ResolvedPair(res.g, res.f, res.H, res.A),
                         ResolvedPair(g=res.g, f=res.f, H=res.H, A=res.A), "H"),
        "ShefferPair": (p,
                        ShefferPair(p.name, p.family, p.params, p.normalization,
                                    p.associated, p.builder),
                        ShefferPair(name=p.name, family=p.family, params=p.params,
                                    normalization=p.normalization,
                                    associated=p.associated, builder=p.builder), "builder"),
        "MixedFamily": (MixedFamily(p, "S", 2, 12),
                        MixedFamily(p),
                        MixedFamily(pair=p, kind="S", r=2, order=12), "r"),
        "_Reduction": (red,
                       _Reduction(red.kind, red.specialize, red.phi),
                       _Reduction(kind=red.kind, specialize=red.specialize, phi=red.phi,
                                  requires_r=None), "requires_r"),
    }


RECORDS = list(_records())


@pytest.mark.parametrize("kind", RECORDS)
def test_record_contract(kind):
    rec, positional, keyword, field = _records()[kind]
    assert positional == rec and keyword == rec and positional is not rec
    assert hash(positional) == hash(rec) == hash(keyword)
    assert type(positional) is type(rec) is type(keyword)
    # a field, and any other name, can be neither assigned nor deleted
    before = getattr(rec, field)
    for name in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, name, before)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert getattr(rec, field) is before and not hasattr(rec, "extra")


@pytest.mark.parametrize("kind", [k for k in RECORDS if k != "_Reduction"])
def test_record_repr_is_deterministic(kind):
    # a _Reduction holds its recipe's functions, so its repr shows them
    rec, positional, _, _ = _records()[kind]
    assert repr(rec) == repr(positional) and " at 0x" not in repr(rec)


def test_pair_repr_leaves_the_builder_out():
    text = repr(get_pair("laguerre"))
    assert text.startswith("ShefferPair(name='laguerre', ")
    assert "builder" not in text and "_build_laguerre" not in text


def test_cached_fields_live_in_the_instance_dict():
    res = get_pair("laguerre").resolved(4)
    fresh = ResolvedPair(res.g, res.f, res.H, res.A)
    assert "factors" not in vars(fresh) and "columns" not in vars(fresh)
    assert fresh.factors is fresh.factors and fresh.factors == res.factors
    assert "factors" in vars(fresh)
    # a planted fault replaces the matrix through the instance dict
    vars(fresh)["columns"] = planted = (res.A,)
    assert fresh.columns is planted
    with pytest.raises(AttributeError):
        fresh.columns = res.columns
    check = Check("s", "c", False, lambda: "rendered")
    assert "witness" not in vars(check) and check.witness == "rendered"
    assert vars(check)["witness"] == "rendered"


@pytest.mark.parametrize("args,message", [
    (("T", 2), "kind must be 'S' or 'R'"),
    (("S", 0), "r must be >= 1"),
])
def test_mixed_family_rejects_bad_fields(args, message):
    with pytest.raises(ValueError) as info:
        MixedFamily(get_pair("identity"), *args)
    assert str(info.value) == message
