"""From a non-weakly regular dual-bent function to a three-weight code.

The defining set is a pre-image of the dual function inside the type
side of the partition; which pre-image depends only on the parity of n
and the type.  The resulting ternary code carries exactly three nonzero
weights whose multiplicities have closed forms, checked here both in
aggregate and codeword by codeword.
"""

from tribent import (
    WeightClassifier,
    build_code,
    enumerator_string,
    establish,
    get_fixture,
    predict_distribution,
    run_pipeline,
)
from tribent.codes import defining_set_for

f = get_fixture("code98-a").build()

# establish decides every hypothesis once (even, non-weakly regular, dual
# bent, type side a non-degenerate subspace, dimension bound); the
# selector requires them all and picks the pre-image with full rank.
ctx = defining_set_for(establish(f))
print("case:", ctx.case.value, " j0:", ctx.j0, " r:", ctx.r,
      " |defining set|:", len(ctx.defining))

# the code is measured over the type side's span V, which establish has
# already reduced: S lies in V, and the pivots of V index the messages
code = build_code(ctx.defining, ctx.hypotheses.v)
print("measured code: [%d,%d,%d]_3" % code.parameters())
print("measured enumerator:", enumerator_string(code.distribution))

pred = predict_distribution(ctx.case, f.n, ctx.r)
print("predicted enumerator:", enumerator_string(pred.distribution))
assert pred.distribution == code.distribution

# Each individual codeword's weight is itself predictable from where a
# message sits relative to the dual's partition.  The code measures every
# codeword once, at one message u_c per coset of its kernel V-perp.
clf = WeightClassifier(ctx)
expected = clf.expected_weights(code)
c = 5
print("message %d: predicted weight %d, actual %d"
      % (code.messages()[c], expected[c], code.message_weights[c]))
assert clf.check_all(code) is None
print("all %d codewords classified correctly" % 3 ** code.dimension)

# The staged pipeline bundles all of the above into one report; note the
# low-weight multiplicity remark (an alternative tabulated reading gives
# 30 where counting, and measurement, give 32).
report = run_pipeline(f)
for note in report.notes:
    print("note:", note)
print("pipeline passed:", report.passed)
