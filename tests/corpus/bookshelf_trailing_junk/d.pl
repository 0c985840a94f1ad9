UCLA pl 1.0

a0	0	0	: N
a1	4	0	: N
