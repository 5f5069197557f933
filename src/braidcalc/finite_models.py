"""Table-driven finite models of small surface pure braid groups.

The closed-surface cases small enough to handle exhaustively: the pure
2-strand group of the projective plane (the quaternion group of order
8), its 1-strand group Z/2, and the pure 3-strand group of the sphere
(Z/2, generated by the full twist).  Each model carries its strand
deletion maps as total functions into a smaller model, verified to be
group homomorphisms at construction, so Cohen and Brunnian subsets can
be enumerated by brute force and compared with the subgroup-closure
facts proved for braids over the disk.

Labels write the order-4 generator of the quaternion model as u and
the other generator as r; r is the loop class usually written rho, and
the defining relations are r u r^-1 = u^-1 and r^2 = u^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "FiniteGroupModel",
    "build_p1_rp2",
    "build_p2_rp2",
    "build_p3_s2",
    "derive_rp2_face_assignments",
    "enumerate_brunnian",
    "enumerate_cohen",
    "h_element_check",
    "trivial_model",
]


@dataclass(frozen=True)
class FiniteGroupModel:
    """A finite group with labeled elements and face homomorphisms.

    table[a][b] is the index of the product of elements a and b (by
    position in labels).  Every face map is total, expressed as a tuple
    of codomain indices, and checked to be a homomorphism.  Group
    axioms are verified exhaustively at construction time.
    """

    name: str
    labels: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]
    identity: int
    faces: tuple[tuple["FiniteGroupModel", tuple[int, ...]], ...] = field(
        default_factory=tuple
    )

    def __post_init__(self) -> None:
        size = len(self.labels)
        if len(set(self.labels)) != size:
            raise ValueError("duplicate labels")
        if len(self.table) != size or any(len(row) != size for row in self.table):
            raise ValueError("table shape mismatch")
        for row in self.table:
            for v in row:
                if not 0 <= v < size:
                    raise ValueError("table entry out of range")
        e = self.identity
        for a in range(size):
            if self.table[e][a] != a or self.table[a][e] != a:
                raise ValueError("identity axiom fails")
        for a in range(size):
            if e not in self.table[a]:
                raise ValueError("inverse axiom fails")
        for a in range(size):
            for b in range(size):
                for c in range(size):
                    if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                        raise ValueError("associativity fails")
        for codomain, mapping in self.faces:
            if len(mapping) != size:
                raise ValueError("face map must be total")
            if mapping[e] != codomain.identity:
                raise ValueError("face map must preserve the identity")
            for a in range(size):
                for b in range(size):
                    if mapping[self.table[a][b]] != codomain.table[mapping[a]][mapping[b]]:
                        raise ValueError("face map is not a homomorphism")

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def mul(self, a: str, b: str) -> str:
        return self.labels[self.table[self.index(a)][self.index(b)]]

    def inverse(self, a: str) -> str:
        i = self.index(a)
        return self.labels[self.table[i].index(self.identity)]

    def order(self, a: str) -> int:
        k, x = 1, self.index(a)
        acc = x
        while acc != self.identity:
            acc = self.table[acc][x]
            k += 1
        return k

    def face_images(self, a: str) -> list[str]:
        i = self.index(a)
        return [cod.labels[mapping[i]] for cod, mapping in self.faces]

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "labels": list(self.labels),
            "identity": self.labels[self.identity],
            "table": {
                a: {b: self.labels[self.table[i][j]] for j, b in enumerate(self.labels)}
                for i, a in enumerate(self.labels)
            },
            "faces": [
                {
                    "codomain": cod.name,
                    "map": {a: cod.labels[mapping[i]] for i, a in enumerate(self.labels)},
                }
                for cod, mapping in self.faces
            ],
        }


def trivial_model(name: str = "trivial") -> FiniteGroupModel:
    return FiniteGroupModel(name, ("e",), ((0,),), 0)


def build_p1_rp2() -> FiniteGroupModel:
    """Z/2: the fundamental group of the projective plane."""
    return _z2("P1(RP2)")


def _z2(name: str, faces: tuple = ()) -> FiniteGroupModel:
    return FiniteGroupModel(name, ("e", "g"), ((0, 1), (1, 0)), 0, faces)


def _q8_table() -> tuple[tuple[str, ...], tuple[tuple[int, ...], ...]]:
    labels = ("e", "u", "u2", "u3", "r", "ru", "ru2", "ru3")

    def decode(idx: int) -> tuple[int, int]:
        return divmod(idx, 4)

    def encode(a: int, b: int) -> int:
        return (a % 2) * 4 + b % 4

    def mul(x: int, y: int) -> int:
        a, b = decode(x)
        c, d = decode(y)
        # move u^b past r^c using r u r^-1 = u^-1, then fold r^2 = u^2
        b2 = -b if c % 2 else b
        a3, carry = (a + c) % 2, (a + c) // 2
        return encode(a3, b2 + d + 2 * carry)

    table = tuple(tuple(mul(x, y) for y in range(8)) for x in range(8))
    return labels, table


def _rp2_face(kills: str, codomain: FiniteGroupModel) -> tuple[int, ...]:
    """Face map on the quaternion model determined by which generator dies.

    kills="r" sends r to the identity and u to the generator g;
    kills="u" is the other way around.  Either map respects the
    defining relations, hence extends to the whole group.
    """
    images = []
    for idx in range(8):
        a, b = divmod(idx, 4)
        if kills == "r":
            val = b % 2
        else:
            val = a % 2
        images.append(codomain.index("g") if val else codomain.identity)
    return tuple(images)


def build_p2_rp2() -> FiniteGroupModel:
    """The quaternion model of the pure 2-strand group of RP^2.

    Faces: d_1 kills r and sends u to the generator of Z/2, d_2 the
    other way around.  This is the assignment (unique up to swapping
    d_1 and d_2) that derive_rp2_face_assignments singles out.
    """
    labels, table = _q8_table()
    z2 = build_p1_rp2()
    faces = (
        (z2, _rp2_face("r", z2)),
        (z2, _rp2_face("u", z2)),
    )
    return FiniteGroupModel("P2(RP2)", labels, table, 0, faces)


def build_p3_s2() -> FiniteGroupModel:
    """Z/2 generated by the full twist, with three faces to the point."""
    point = trivial_model("P2(S2)")
    face = (point, (0, 0))
    return _z2("P3(S2)", (face,) * 3)


def enumerate_cohen(m: FiniteGroupModel) -> list[str]:
    """Elements whose faces all agree; checked closed under * and inverse."""
    subset = [
        a
        for a in m.labels
        if len(set(m.face_images(a))) <= 1
    ]
    chosen = set(subset)
    for a in subset:
        if m.inverse(a) not in chosen:
            raise AssertionError("Cohen subset not closed under inverse")
        for b in subset:
            if m.mul(a, b) not in chosen:
                raise AssertionError("Cohen subset not closed under multiplication")
    return subset


def enumerate_brunnian(m: FiniteGroupModel) -> list[str]:
    """Elements whose faces are all the identity of their codomains."""
    out = []
    for a in m.labels:
        i = m.index(a)
        if all(mapping[i] == cod.identity for cod, mapping in m.faces):
            out.append(a)
    return out


def h_element_check(m: FiniteGroupModel, g1: str, g2: str) -> bool:
    """Whether the product g1 g2 lies in the Cohen subset of the model."""
    return m.mul(g1, g2) in set(enumerate_cohen(m))


def derive_rp2_face_assignments() -> list[tuple[str, str]]:
    """Which (d_1, d_2) generator-kill assignments fit the known facts.

    Tries all four combinations of "d_i kills r" / "d_i kills u" and
    keeps those for which the Brunnian subset has order 2, the Cohen
    subset is the order-4 cyclic subgroup generated by ru, and u and
    ru2 are excluded.  Exactly the two assignments that kill different
    generators survive, i.e. one class up to the d_1/d_2 swap.
    """
    labels, table = _q8_table()
    z2 = build_p1_rp2()
    survivors = []
    for k1 in ("r", "u"):
        for k2 in ("r", "u"):
            faces = ((z2, _rp2_face(k1, z2)), (z2, _rp2_face(k2, z2)))
            model = FiniteGroupModel("candidate", labels, table, 0, faces)
            cohen = set(enumerate_cohen(model))
            brunnian = enumerate_brunnian(model)
            ok = (
                len(brunnian) == 2
                and cohen == {"e", "u2", "ru", "ru3"}
                and model.order("ru") == 4
                and "u" not in cohen
                and "ru2" not in cohen
            )
            if ok:
                survivors.append((k1, k2))
    return survivors
