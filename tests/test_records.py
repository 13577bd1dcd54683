"""Records are plain slotted dataclasses: what leaving `frozen` off must not change.

Equality, hashing, `repr` and `match` patterns of the script AST, the bridge
markers, host values and signatures are the same as when they were frozen;
`pos` and `MethodSignature.code` stay out of comparison and hashing.
"""

from __future__ import annotations

from rjs.bridge import MethodRef, NsRef, Proxy
from rjs.model import K_F64, HostValue, MethodSignature, Return, ValueKind
from rjs.script import SCall, SIdent, SNum, parse


def test_records_compare_hash_and_match_as_frozen_ones_did():
    source = 'let x = f(1, "s") + y.z; print(fn(a) { a * 2; });'
    near, far = parse(source), parse("\n\n   " + source.replace(" ", "  "))
    assert [s.pos for s in near] != [s.pos for s in far]
    assert near == far and hash(near) == hash(far)
    assert SNum(1.0, (1, 1)) == SNum(1.0, (7, 9)) and hash(SNum(1.0, (1, 1))) == hash(SNum(1.0, (7, 9)))
    assert SCall(SIdent("f"), (SNum(1.0),)) != SCall(SIdent("g"), (SNum(1.0),))
    assert repr(SNum(1.0, (2, 3))) == "SNum(value=1.0, pos=(2, 3))"

    def keys() -> list:
        owner = Proxy(0x1000, "TH1D")
        return [HostValue("i64", 3), ValueKind("enum", "Color"), owner,
                MethodRef(owner, "TH1D", "Fill"), MethodRef(None, "TH1D", "Fill"), NsRef("ROOT.Math")]

    table = {key: index for index, key in enumerate(keys())}
    assert len(table) == 6
    assert [table[twin] for twin in keys()] == list(range(6))
    assert [hash(key) for key in keys()] == [hash(twin) for twin in keys()]
    assert HostValue("i64", 3) != HostValue("f64", 3) and HostValue("enum", 1, "Color") != HostValue("enum", 1)
    assert repr(Proxy(0x1000, "TH1D")) == "Proxy(canonical=4096, type_name='TH1D')"

    match Proxy(0x1000, "TH1D"):
        case Proxy(canonical, type_name):
            assert (canonical, type_name) == (0x1000, "TH1D")
        case _:
            raise AssertionError("Proxy(canonical, type_name) did not bind")

    body = (Return(None),)
    compiled, fresh = MethodSignature((K_F64,), K_F64, body=body), MethodSignature((K_F64,), K_F64, body=body)
    compiled.code = lambda heap, self_addr, args: None
    assert compiled == fresh and hash(compiled) == hash(fresh)
    assert repr(compiled) == repr(fresh) and "code" not in repr(compiled)
    assert compiled != MethodSignature((K_F64,), K_F64, is_static=True, body=body)
