"""The type checker to check the HOL reader against.

This is the checker the reader replaced: a post-order walk over a built
term that validates every type against the signature and names the first
application that does not check.  The reader now does both as it builds
the term, so a second walk is only fit for tests.
"""

from __future__ import annotations

from hammerkit.hol import (
    _LVL_IMP,
    ArityMismatch,
    App,
    Const,
    HolTerm,
    HolType,
    Signature,
    TyVar,
    TypeMismatch,
    UnknownSymbol,
    Var,
    _tm,
    _ty,
    dest_fun,
    is_fun,
    mk_fun,
)


def validate_type(ty: HolType, sig: Signature) -> None:
    if isinstance(ty, TyVar):
        return
    if ty.con not in sig.types:
        raise UnknownSymbol(f"undeclared type constructor: {ty.con}")
    arity = sig.types[ty.con]
    if arity != len(ty.args):
        raise ArityMismatch(
            f"type constructor {ty.con} has arity {arity}, applied to {len(ty.args)}"
        )
    for a in ty.args:
        validate_type(a, sig)


def typecheck(t: HolTerm, sig: Signature) -> HolType:
    """Check and return the type of a term, naming the offending subterm on error."""
    if isinstance(t, Var):
        validate_type(t.ty, sig)
        return t.ty
    if isinstance(t, Const):
        for i in t.inst:
            validate_type(i, sig)
        return sig.const_type(t)
    if isinstance(t, App):
        fty = typecheck(t.fun, sig)
        aty = typecheck(t.arg, sig)
        if not is_fun(fty):
            raise TypeMismatch(f"applying non-function {_tm(t.fun, _LVL_IMP)} : {_ty(fty, 0)}")
        want, res = dest_fun(fty)
        if want != aty:
            raise TypeMismatch(
                f"in {_tm(t, _LVL_IMP)}: expected argument of type {_ty(want, 0)}, "
                f"got {_tm(t.arg, _LVL_IMP)} : {_ty(aty, 0)}"
            )
        return res
    validate_type(t.var.ty, sig)
    return mk_fun(t.var.ty, typecheck(t.body, sig))
