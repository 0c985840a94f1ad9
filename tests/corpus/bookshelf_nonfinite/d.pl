UCLA pl 1.0

a0	nan	0	: N
a1	4	0	: N
