"""Gluing weakly regular components into a non-weakly regular function.

F(x, y, z) = f_z(x) + z.y glues 3^s components on F_3^m into a bent
function on F_3^(m+2s).  When the components are weakly regular of mixed
types, the glued function is non-weakly regular and its plus/minus point
partition has closed form: (all x) x W x (all z), where W collects the
parameter values whose component has that type.
"""

import numpy as np

from tribent import (
    BentType,
    GmmfSpec,
    QuadraticForm,
    bent_profile,
    gmmf_build,
    gmmf_predict,
    quadratic_function,
    quadratic_type,
    span,
)

# Diagonal quadratics are the component workhorse: the discriminant's
# quadratic character decides the type.
plus_form = QuadraticForm((2, 2, 1, 1))
minus_form = QuadraticForm((1, 1, 2, 1))
print("types:", quadratic_type(plus_form).value, "/", quadratic_type(minus_form).value)

spec = GmmfSpec(4, 1, (
    quadratic_function(plus_form),     # z = 0
    quadratic_function(minus_form),    # z = 1
    quadratic_function(minus_form),    # z = 2  (same as z = -1: keeps F even)
))
F = gmmf_build(spec)
print("glued function on F_3^%d, even: %s" % (F.n, F.is_even()))

# The prediction is assembled purely from the component profiles ...
pred = gmmf_predict(spec)
print("predicted regularity:", pred.regularity.value)
print("predicted plus side size:", int((pred.sign == 1).sum()))

# ... and matches the measured profile exactly, dual table included.
prof = bent_profile(F)
assert np.array_equal(pred.sign, prof.sign)
assert pred.dual == prof.dual
assert pred.regularity is prof.regularity
print("measured profile matches the prediction")

# The plus side here is a 5-dimensional subspace of F_3^6: the stage on
# which the defining-set codes are built.
side = span(np.flatnonzero(prof.side_mask(BentType.PLUS)), F.n)
print("plus side: dimension", side.dim, "of", F.n)
