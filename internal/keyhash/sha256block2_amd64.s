// Two-lane SHA-256 for the multi-buffer keyed-hash kernel.
//
// func sha256block2(d0, d1 *Digest, p0, p1 *byte, mid *keyMidstate, blocks int)
//
// Hashes two fully padded messages of `blocks` 64-byte blocks each: p0
// into digest d0 and, interleaved in the same instruction stream, p1
// into d1. Both states stay in registers across the blocks, and both
// digests are stored big-endian at the end. The two messages are
// independent, so their SHA256RNDS2 dependency chains overlap in the
// out-of-order core: a single-stream SHA-NI loop is latency-bound on that
// chain, while the paired loop keeps the SHA unit busy and lands near
// twice the throughput. p0 == p1 is allowed.
//
// With mid nil, block 1 starts from the IV at round 0. With mid set (a
// key of 32 bytes or more, so message bytes 0-39 are len(k) ‖ k), block 1
// starts at round 10: mid holds the state after rounds 0-9, W0-W7 already
// through SHA256MSG1, and W8-W9. Bytes 0-39 of p0 and p1 are then not
// read at all.
//
// Every message load is two 8-byte halves (MOVQ, PINSRQ). The Go side
// writes each value as whole 8-byte words at 8-byte-aligned offsets, so
// each load forwards from exactly one store; a 16-byte load over two
// narrower stores would stall on store forwarding instead.
//
// The round structure is the canonical Intel SHA-NI flow, the same one
// the Go runtime uses for crypto/sha256, duplicated per lane at
// 4-round-group granularity:
//
//	lane A: X1 = ABEF, X2 = CDGH, X3-X6 = message schedule
//	lane B: X9 = ABEF, X10 = CDGH, X11-X14 = message schedule
//	shared: X0 = WK staging (implicit SHA256RNDS2 operand),
//	        X7 = scratch, X8 = byte-swap shuffle mask
//
// Requires SHA-NI, SSSE3 (PSHUFB) and SSE4.1 (PBLENDW, PINSRQ); the Go
// side gates construction on CPUID.

#include "textflag.h"

// Group 0-2: load 16 message bytes, byte-swap, stash the schedule word,
// run 4 rounds. MSG1 of the previous schedule word is folded in from
// group 1 on (G_LOAD1).
#define G_LOAD0(off, p, st0, st1, w) \
	MOVQ        off(p), X0          \
	PINSRQ      $1, off+8(p), X0    \
	PSHUFB      X8, X0              \
	MOVO        X0, w               \
	PADDD       off(AX), X0         \
	SHA256RNDS2 X0, st0, st1        \
	PSHUFD      $0x0e, X0, X0       \
	SHA256RNDS2 X0, st1, st0

#define G_LOAD1(off, p, st0, st1, w, wprev) \
	MOVQ        off(p), X0          \
	PINSRQ      $1, off+8(p), X0    \
	PSHUFB      X8, X0              \
	MOVO        X0, w               \
	PADDD       off(AX), X0         \
	SHA256RNDS2 X0, st0, st1        \
	PSHUFD      $0x0e, X0, X0       \
	SHA256RNDS2 X0, st1, st0        \
	SHA256MSG1  w, wprev

// Midstate entry, rounds 10-11: W8-W9 come from mid, W10-W11 are message
// bytes 40-47. The incoming state is that after round 9, ABEF in st1 and
// CDGH in st0, as group 2's first SHA256RNDS2 would have left it.
#define G_MID10(p, st0, st1, w2) \
	MOVQ        40(p), X7           \
	PSHUFB      X8, X7              \
	MOVQ        64(DX), w2          \
	PUNPCKLQDQ  X7, w2              \
	MOVO        w2, X0              \
	PADDD       32(AX), X0          \
	PSHUFD      $0x0e, X0, X0       \
	SHA256RNDS2 X0, st1, st0

// Group 3: the last message load; the schedule pipeline starts (MSG2
// finishes W16-19 into w0).
#define G_LOAD3(p, st0, st1, w0, w2, w3) \
	MOVQ        48(p), X0           \
	PINSRQ      $1, 56(p), X0       \
	PSHUFB      X8, X0              \
	MOVO        X0, w3              \
	PADDD       48(AX), X0          \
	SHA256RNDS2 X0, st0, st1        \
	MOVO        w3, X7              \
	PALIGNR     $4, w2, X7          \
	PADDD       X7, w0              \
	SHA256MSG2  w3, w0              \
	PSHUFD      $0x0e, X0, X0       \
	SHA256RNDS2 X0, st1, st0        \
	SHA256MSG1  w3, w2

// Groups 4-12: 4 rounds plus the full schedule update (MSG1 + MSG2).
#define G_MID(koff, st0, st1, cur, prev3, nxt) \
	MOVO        cur, X0             \
	PADDD       koff(AX), X0        \
	SHA256RNDS2 X0, st0, st1        \
	MOVO        cur, X7             \
	PALIGNR     $4, prev3, X7       \
	PADDD       X7, nxt             \
	SHA256MSG2  cur, nxt            \
	PSHUFD      $0x0e, X0, X0       \
	SHA256RNDS2 X0, st1, st0        \
	SHA256MSG1  cur, prev3

// Groups 13-14: schedule tail — MSG2 still needed, MSG1 no longer.
#define G_TAIL(koff, st0, st1, cur, prev3, nxt) \
	MOVO        cur, X0             \
	PADDD       koff(AX), X0        \
	SHA256RNDS2 X0, st0, st1        \
	MOVO        cur, X7             \
	PALIGNR     $4, prev3, X7       \
	PADDD       X7, nxt             \
	SHA256MSG2  cur, nxt            \
	PSHUFD      $0x0e, X0, X0       \
	SHA256RNDS2 X0, st1, st0

// Group 15: rounds 60-63, no schedule work left.
#define G_LAST(st0, st1, w3) \
	MOVO        w3, X0              \
	PADDD       240(AX), X0         \
	SHA256RNDS2 X0, st0, st1        \
	PSHUFD      $0x0e, X0, X0       \
	SHA256RNDS2 X0, st1, st0

// Working order (ABEF, CDGH) back to h[0..7], byte-swapped into the
// big-endian digest at d.
#define PUT_DIGEST(abef, cdgh, d) \
	PSHUFD      $0x1b, abef, abef   \
	PSHUFD      $0xb1, cdgh, cdgh   \
	MOVO        abef, X7            \
	PBLENDW     $0xf0, cdgh, abef   \
	PALIGNR     $8, X7, cdgh        \
	PSHUFB      X8, abef            \
	PSHUFB      X8, cdgh            \
	MOVOU       abef, (d)           \
	MOVOU       cdgh, 16(d)

TEXT ·sha256block2(SB), NOSPLIT, $64-48
	MOVQ d0+0(FP), DI
	MOVQ d1+8(FP), R9
	MOVQ p0+16(FP), SI
	MOVQ p1+24(FP), R8
	MOVQ mid+32(FP), DX
	MOVQ blocks+40(FP), BX
	LEAQ kernelK256<>+0(SB), AX
	MOVOU kernelFlip<>+0(SB), X8

	// Both lanes start from the IV in working order.
	MOVOU kernelIV<>+0(SB), X1
	MOVOU kernelIV<>+16(SB), X2
	MOVO  X1, X9
	MOVO  X2, X10
	TESTQ DX, DX
	JZ    roundLoop

	// Midstate entry: the IV is block 1's feed-forward; the state after
	// round 9 and the schedule through W9 come from mid.
	MOVOU X1, 0(SP)
	MOVOU X2, 16(SP)
	MOVOU X1, 32(SP)
	MOVOU X2, 48(SP)
	MOVOU 0(DX), X2
	MOVOU 16(DX), X1
	MOVO  X2, X10
	MOVO  X1, X9
	MOVOU 32(DX), X3
	MOVO  X3, X11
	MOVOU 48(DX), X4
	MOVO  X4, X12
	G_MID10(SI, X1, X2, X5)
	G_MID10(R8, X9, X10, X13)
	G_LOAD3(SI, X1, X2, X3, X5, X6)
	G_LOAD3(R8, X9, X10, X11, X13, X14)
	JMP   schedule

roundLoop:
	// Save the incoming states for the final feed-forward add.
	MOVOU X1, 0(SP)
	MOVOU X2, 16(SP)
	MOVOU X9, 32(SP)
	MOVOU X10, 48(SP)

	G_LOAD0(0, SI, X1, X2, X3)
	G_LOAD0(0, R8, X9, X10, X11)
	G_LOAD1(16, SI, X1, X2, X4, X3)
	G_LOAD1(16, R8, X9, X10, X12, X11)
	G_LOAD1(32, SI, X1, X2, X5, X4)
	G_LOAD1(32, R8, X9, X10, X13, X12)
	G_LOAD3(SI, X1, X2, X3, X5, X6)
	G_LOAD3(R8, X9, X10, X11, X13, X14)

schedule:
	G_MID(64, X1, X2, X3, X6, X4)
	G_MID(64, X9, X10, X11, X14, X12)
	G_MID(80, X1, X2, X4, X3, X5)
	G_MID(80, X9, X10, X12, X11, X13)
	G_MID(96, X1, X2, X5, X4, X6)
	G_MID(96, X9, X10, X13, X12, X14)
	G_MID(112, X1, X2, X6, X5, X3)
	G_MID(112, X9, X10, X14, X13, X11)
	G_MID(128, X1, X2, X3, X6, X4)
	G_MID(128, X9, X10, X11, X14, X12)
	G_MID(144, X1, X2, X4, X3, X5)
	G_MID(144, X9, X10, X12, X11, X13)
	G_MID(160, X1, X2, X5, X4, X6)
	G_MID(160, X9, X10, X13, X12, X14)
	G_MID(176, X1, X2, X6, X5, X3)
	G_MID(176, X9, X10, X14, X13, X11)
	G_MID(192, X1, X2, X3, X6, X4)
	G_MID(192, X9, X10, X11, X14, X12)

	G_TAIL(208, X1, X2, X4, X3, X5)
	G_TAIL(208, X9, X10, X12, X11, X13)
	G_TAIL(224, X1, X2, X5, X4, X6)
	G_TAIL(224, X9, X10, X13, X12, X14)

	G_LAST(X1, X2, X6)
	G_LAST(X9, X10, X14)

	// Feed-forward: add the saved incoming states.
	MOVOU 0(SP), X7
	PADDD X7, X1
	MOVOU 16(SP), X7
	PADDD X7, X2
	MOVOU 32(SP), X7
	PADDD X7, X9
	MOVOU 48(SP), X7
	PADDD X7, X10

	ADDQ $64, SI
	ADDQ $64, R8
	DECQ BX
	JNZ  roundLoop

	PUT_DIGEST(X1, X2, DI)
	PUT_DIGEST(X9, X10, R9)
	RET

// SHA-256 round constants, packed (16-byte stride, 4 constants per
// round group).
DATA kernelK256<>+0x00(SB)/4, $0x428a2f98
DATA kernelK256<>+0x04(SB)/4, $0x71374491
DATA kernelK256<>+0x08(SB)/4, $0xb5c0fbcf
DATA kernelK256<>+0x0c(SB)/4, $0xe9b5dba5
DATA kernelK256<>+0x10(SB)/4, $0x3956c25b
DATA kernelK256<>+0x14(SB)/4, $0x59f111f1
DATA kernelK256<>+0x18(SB)/4, $0x923f82a4
DATA kernelK256<>+0x1c(SB)/4, $0xab1c5ed5
DATA kernelK256<>+0x20(SB)/4, $0xd807aa98
DATA kernelK256<>+0x24(SB)/4, $0x12835b01
DATA kernelK256<>+0x28(SB)/4, $0x243185be
DATA kernelK256<>+0x2c(SB)/4, $0x550c7dc3
DATA kernelK256<>+0x30(SB)/4, $0x72be5d74
DATA kernelK256<>+0x34(SB)/4, $0x80deb1fe
DATA kernelK256<>+0x38(SB)/4, $0x9bdc06a7
DATA kernelK256<>+0x3c(SB)/4, $0xc19bf174
DATA kernelK256<>+0x40(SB)/4, $0xe49b69c1
DATA kernelK256<>+0x44(SB)/4, $0xefbe4786
DATA kernelK256<>+0x48(SB)/4, $0x0fc19dc6
DATA kernelK256<>+0x4c(SB)/4, $0x240ca1cc
DATA kernelK256<>+0x50(SB)/4, $0x2de92c6f
DATA kernelK256<>+0x54(SB)/4, $0x4a7484aa
DATA kernelK256<>+0x58(SB)/4, $0x5cb0a9dc
DATA kernelK256<>+0x5c(SB)/4, $0x76f988da
DATA kernelK256<>+0x60(SB)/4, $0x983e5152
DATA kernelK256<>+0x64(SB)/4, $0xa831c66d
DATA kernelK256<>+0x68(SB)/4, $0xb00327c8
DATA kernelK256<>+0x6c(SB)/4, $0xbf597fc7
DATA kernelK256<>+0x70(SB)/4, $0xc6e00bf3
DATA kernelK256<>+0x74(SB)/4, $0xd5a79147
DATA kernelK256<>+0x78(SB)/4, $0x06ca6351
DATA kernelK256<>+0x7c(SB)/4, $0x14292967
DATA kernelK256<>+0x80(SB)/4, $0x27b70a85
DATA kernelK256<>+0x84(SB)/4, $0x2e1b2138
DATA kernelK256<>+0x88(SB)/4, $0x4d2c6dfc
DATA kernelK256<>+0x8c(SB)/4, $0x53380d13
DATA kernelK256<>+0x90(SB)/4, $0x650a7354
DATA kernelK256<>+0x94(SB)/4, $0x766a0abb
DATA kernelK256<>+0x98(SB)/4, $0x81c2c92e
DATA kernelK256<>+0x9c(SB)/4, $0x92722c85
DATA kernelK256<>+0xa0(SB)/4, $0xa2bfe8a1
DATA kernelK256<>+0xa4(SB)/4, $0xa81a664b
DATA kernelK256<>+0xa8(SB)/4, $0xc24b8b70
DATA kernelK256<>+0xac(SB)/4, $0xc76c51a3
DATA kernelK256<>+0xb0(SB)/4, $0xd192e819
DATA kernelK256<>+0xb4(SB)/4, $0xd6990624
DATA kernelK256<>+0xb8(SB)/4, $0xf40e3585
DATA kernelK256<>+0xbc(SB)/4, $0x106aa070
DATA kernelK256<>+0xc0(SB)/4, $0x19a4c116
DATA kernelK256<>+0xc4(SB)/4, $0x1e376c08
DATA kernelK256<>+0xc8(SB)/4, $0x2748774c
DATA kernelK256<>+0xcc(SB)/4, $0x34b0bcb5
DATA kernelK256<>+0xd0(SB)/4, $0x391c0cb3
DATA kernelK256<>+0xd4(SB)/4, $0x4ed8aa4a
DATA kernelK256<>+0xd8(SB)/4, $0x5b9cca4f
DATA kernelK256<>+0xdc(SB)/4, $0x682e6ff3
DATA kernelK256<>+0xe0(SB)/4, $0x748f82ee
DATA kernelK256<>+0xe4(SB)/4, $0x78a5636f
DATA kernelK256<>+0xe8(SB)/4, $0x84c87814
DATA kernelK256<>+0xec(SB)/4, $0x8cc70208
DATA kernelK256<>+0xf0(SB)/4, $0x90befffa
DATA kernelK256<>+0xf4(SB)/4, $0xa4506ceb
DATA kernelK256<>+0xf8(SB)/4, $0xbef9a3f7
DATA kernelK256<>+0xfc(SB)/4, $0xc67178f2
GLOBL kernelK256<>(SB), RODATA, $256

// Byte-swap mask: big-endian message words from little-endian loads.
DATA kernelFlip<>+0(SB)/8, $0x0405060700010203
DATA kernelFlip<>+8(SB)/8, $0x0c0d0e0f08090a0b
GLOBL kernelFlip<>(SB), RODATA, $16

// The SHA-256 IV (FIPS 180-4, 5.3.3) in working order: ABEF = (F, E, B,
// A) and CDGH = (H, G, D, C), low dword first.
DATA kernelIV<>+0x00(SB)/4, $0x9b05688c
DATA kernelIV<>+0x04(SB)/4, $0x510e527f
DATA kernelIV<>+0x08(SB)/4, $0xbb67ae85
DATA kernelIV<>+0x0c(SB)/4, $0x6a09e667
DATA kernelIV<>+0x10(SB)/4, $0x5be0cd19
DATA kernelIV<>+0x14(SB)/4, $0x1f83d9ab
DATA kernelIV<>+0x18(SB)/4, $0xa54ff53a
DATA kernelIV<>+0x1c(SB)/4, $0x3c6ef372
GLOBL kernelIV<>(SB), RODATA, $32
