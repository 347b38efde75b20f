"""Trace forms over GF(3^k) as bent-function sources.

A power sum Tr(c1 t^e1 + c2 t^e2) over an extension field is tabulated
through the polynomial-basis encoding, making it directly a function on
F_3^k.  The two bundled trace fixtures show both endings: one satisfies
every code-construction hypothesis, the other has a non-bent dual, so
only its measured code exists.
"""

from tribent import (
    BentType,
    ExtField,
    TraceSpec,
    bent_profile,
    run_pipeline,
    trace_function,
)
from tribent.fields import find_irreducible
from tribent.fixtures import get_fixture

# The trace14 fixture's spec: GF(3^4) with modulus t^4 + t + 2, and the
# residue class t (encoded 3) as the primitive generator.
spec = get_fixture("trace14").spec
field = ExtField.create(spec["k"], spec["modulus"], spec["generator"])
print("field order:", field.q, " Tr(t) =", field.trace(3))

terms = tuple(map(tuple, spec["terms"]))  # Tr(g^10 x^22 + x^4)
g = trace_function(TraceSpec(field, terms))
profile = bent_profile(g)
print("bent, type", profile.type.value + ",", profile.regularity.value)
# the profile decides once whether the dual is bent
print("dual bent:", profile.dual_bent)

# The pipeline still measures the requested pre-image code when the
# dual-bent hypothesis fails.
report = run_pipeline(g, force_set="C0")
c = report.code
print("measured code: [%d,%d,%d]_3  %s" % (c.length, c.dimension,
                                           c.min_distance, c.enumerator))

# The companion fixture over GF(3^6) satisfies all hypotheses and its
# code matches the even/minus closed form.
report36 = run_pipeline(get_fixture("trace36").build())
c36 = report36.code
print("\nGF(3^6) fixture: [%d,%d,%d]_3  %s  (closed-form match: %s)"
      % (c36.length, c36.dimension, c36.min_distance, c36.enumerator,
         c36.match))

# Nothing is special about the pinned generator: scanning the primitive
# elements of GF(3^4) shows the same classification for each choice.
hits = 0
for w in field.primitive_elements()[:8]:
    fld = ExtField.create(4, find_irreducible(4), w)
    cand = trace_function(TraceSpec(fld, terms))
    p = bent_profile(cand)
    hits += p.type is BentType.PLUS and not p.dual_bent
print("\n%d/8 sampled primitive elements reproduce the classification" % hits)
