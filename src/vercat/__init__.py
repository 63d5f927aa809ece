"""Exact linear algebra over GF(p), the Verlinde fusion category Ver_p
built from Rep(Z/pZ) by killing negligible morphisms, graded invariant
algebras of symmetric algebras in Ver_p, and the characteristic-2
supervector category sVec_2.

All arithmetic is exact: residues over prime fields, and integer
monomial counts for the one characteristic-0 demo.  Floating point
appears only inside the product kernels `exactlin.matmul_mod` and
`exactlin.contract_mod`, where every partial sum is an integer below 2^53.
"""

__version__ = "0.1.0"
