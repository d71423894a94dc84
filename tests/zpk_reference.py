"""The dict-keyed Z/p^k[G] as it stood before the flat coefficient lists,
kept verbatim (only the class is renamed) as the oracle that the flat
grouprings.ZpkGroupRing is tested against: an element is a dict from
exponent tuples to nonzero coefficients mod p^k.
"""

from ctower.abelian import AbelianGroup
from ctower.grouprings import GroupRingElem


class ReferenceZpkGroupRing:
    """Z/p^k[G] for a finite abelian group G."""

    def __init__(self, p: int, k: int, group: AbelianGroup):
        self.p, self.k = p, k
        self.pk = p ** k
        self.group = group
        self.elems = sorted(group.elements())
        self.index = {e: i for i, e in enumerate(self.elems)}
        self.basis_size = len(self.elems)

    @property
    def zero(self):
        return {}

    @property
    def one(self):
        return {self.group.identity: 1}

    def from_group_ring(self, x: GroupRingElem):
        return {k: v % self.pk for k, v in x.coeffs.items() if v % self.pk}

    def add(self, a, b):
        out = dict(a)
        for kk, v in b.items():
            w = (out.get(kk, 0) + v) % self.pk
            if w:
                out[kk] = w
            else:
                out.pop(kk, None)
        return out

    def neg(self, a):
        return {kk: (-v) % self.pk for kk, v in a.items()}

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        g = self.group
        out = {}
        for k1, v1 in a.items():
            for k2, v2 in b.items():
                kk = g.mul(k1, k2)
                out[kk] = (out.get(kk, 0) + v1 * v2) % self.pk
        return {kk: v for kk, v in out.items() if v}

    def scale_int(self, c, a):
        return {kk: (c * v) % self.pk for kk, v in a.items() if (c * v) % self.pk}

    def to_vec(self, a):
        vec = [0] * self.basis_size
        for kk, v in a.items():
            vec[self.index[kk]] = v % self.pk
        return vec

    def from_vec(self, vec):
        return {self.elems[i]: v % self.pk for i, v in enumerate(vec) if v % self.pk}

    def equal(self, a, b):
        return self.to_vec(a) == self.to_vec(b)

    def describe(self):
        return f"Z/{self.p}^{self.k}[G{list(self.group.orders)}]"
