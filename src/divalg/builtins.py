"""Embedded golden inputs: the vector products, their algebras, and the
identity quadruple.  These ship with the package so acceptance runs need no
setup files.

Each constructor imports what it builds, so importing BUILTINS and
load_builtin loads no other module."""

from __future__ import annotations


def cross7_triple():
    from .dissident import DissidentTriple, cross_product_map
    from .exact import Matrix

    return DissidentTriple(7, Matrix.zeros(7, 7), cross_product_map(7))


def cross3_triple():
    from .dissident import DissidentTriple, cross_product_map
    from .exact import Matrix

    return DissidentTriple(3, Matrix.zeros(3, 3), cross_product_map(3))


def octonion_algebra():
    from .octonion import structure_table
    from .qda import AlgebraPresentation

    return AlgebraPresentation(structure_table(8), [1, 0, 0, 0, 0, 0, 0, 0])


def quaternion_algebra():
    from .octonion import structure_table
    from .qda import AlgebraPresentation

    return AlgebraPresentation(structure_table(4), [1, 0, 0, 0])


def identity_quadruple():
    from .dissident import MatrixQuadruple

    return MatrixQuadruple.identity()


BUILTINS = {
    "cross7": cross7_triple,
    "cross3": cross3_triple,
    "octonions": octonion_algebra,
    "quaternions": quaternion_algebra,
    "identity-quadruple": identity_quadruple,
}


def load_builtin(name: str):
    if name not in BUILTINS:
        known = ", ".join(sorted(BUILTINS))
        raise KeyError(f"unknown builtin {name!r} (known: {known})")
    return BUILTINS[name]()
