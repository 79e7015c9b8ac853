"""Online matrix prediction: multiplicative weights over decomposable
matrix classes, with problem adapters for online max-cut, gambling, and
collaborative filtering."""
