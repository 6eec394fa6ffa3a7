// The sincos below is a port of Go's math.Sincos (src/math/sincos.go,
// with the coefficients of src/math/sin.go), under Go's license:
//
// Copyright 2010 The Go Authors. All rights reserved.
//
// Redistribution and use in source and binary forms, with or without
// modification, are permitted provided that the following conditions are
// met:
//
//    * Redistributions of source code must retain the above copyright
// notice, this list of conditions and the following disclaimer.
//    * Redistributions in binary form must reproduce the above
// copyright notice, this list of conditions and the following disclaimer
// in the documentation and/or other materials provided with the
// distribution.
//    * Neither the name of Google Inc. nor the names of its
// contributors may be used to endorse or promote products derived from
// this software without specific prior written permission.
//
// THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
// "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
// LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
// A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
// OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
// SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
// LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
// DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
// THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
// (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
// OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
//
// Go took the polynomial coefficients from the Cephes Math Library
// (sin.c, Release 2.8, copyright 1984–2000 Stephen L. Moshier), which
// "may be used freely but comes with no support or guarantee".

package geom

import "math"

// Coefficients of the sine and cosine polynomials on [-π/4, π/4]
// (Go's math._sin and math._cos).
var (
	sinPoly = [...]float64{
		1.58962301576546568060e-10, // 0x3de5d8fd1fd19ccd
		-2.50507477628578072866e-8, // 0xbe5ae5e5a9291f5d
		2.75573136213857245213e-6,  // 0x3ec71de3567d48a1
		-1.98412698295895385996e-4, // 0xbf2a01a019bfdf03
		8.33333333332211858878e-3,  // 0x3f8111111110f7d0
		-1.66666666666666307295e-1, // 0xbfc5555555555548
	}
	cosPoly = [...]float64{
		-1.13585365213876817300e-11, // 0xbda8fa49a0861a9b
		2.08757008419747316778e-9,   // 0x3e21ee9d7b4e3f05
		-2.75573141792967388112e-7,  // 0xbe927e4f7eac4bc6
		2.48015872888517045348e-5,   // 0x3efa01a019c844f5
		-1.38888888888730564116e-3,  // 0xbf56c16c16c14f91
		4.16666666666665929218e-2,   // 0x3fa555555555554b
	}
)

// sincos returns the sine and cosine of x: math.Sincos's arithmetic,
// bit for bit on amd64, for every x. Two things differ from the
// original, and neither changes a result there:
//
//   - Every product is rounded explicitly (float64(x*y)), so no
//     architecture may fuse it into a multiply-add; math.Sincos is
//     fused on arm64, ppc64le, s390x and riscv64, and this is not.
//   - The octant swap and the signs are picked with bit masks instead
//     of branches, which mispredict on random angles.
//
// Zero, NaN, ±Inf and |x| ≥ 2^29 (Go's reduceThreshold, above which
// the reduction is Payne–Hanek's) take a cold path through math.Sincos
// itself. No engine angle reaches it: every one is Range(0, 2π).
func sincos(x float64) (sin, cos float64) {
	const (
		pi4A = 7.85398125648498535156e-1  // 0x3fe921fb40000000, π/4 split into three parts
		pi4B = 3.77489470793079817668e-8  // 0x3e64442d00000000,
		pi4C = 2.69515142907905952645e-15 // 0x3ce8469898cc5170,

		signBit       = 1 << 63
		thresholdBits = 0x41c0000000000000 // math.Float64bits(1 << 29)
	)
	bits := math.Float64bits(x)
	abs := bits &^ signBit
	// One unsigned compare sends 0 (which wraps), 2^29 and up, ±Inf and
	// NaN to the cold path.
	if abs-1 >= thresholdBits-1 {
		return math.Sincos(x)
	}
	ax := math.Float64frombits(abs)

	// ax/(π/4) < 2^30, so the conversions through int64 are exact and
	// need none of the unsigned conversions' range branches.
	j := uint64(int64(ax * (4 / math.Pi))) // integer part of ax/(π/4)
	j += j & 1                             // map zeros to origin: j is even
	y := float64(int64(j))
	z := ((ax - float64(y*pi4A)) - float64(y*pi4B)) - float64(y*pi4C)

	zz := float64(z * z)
	pc := float64(cosPoly[0]*zz) + cosPoly[1]
	ps := float64(sinPoly[0]*zz) + sinPoly[1]
	pc = float64(pc*zz) + cosPoly[2]
	pc = float64(pc*zz) + cosPoly[3]
	pc = float64(pc*zz) + cosPoly[4]
	pc = float64(pc*zz) + cosPoly[5]
	ps = float64(ps*zz) + sinPoly[2]
	ps = float64(ps*zz) + sinPoly[3]
	ps = float64(ps*zz) + sinPoly[4]
	ps = float64(ps*zz) + sinPoly[5]
	c := (1.0 - float64(0.5*zz)) + float64(float64(zz*zz)*pc)
	s := z + float64(float64(z*zz)*ps)

	// j is 0, 2, 4 or 6 modulo 8. Octants 2 and 6 swap sine and cosine,
	// 4 and 6 negate the sine, and 2 and 4 the cosine; the sine also
	// carries x's sign.
	swap := -(j >> 1 & 1) // all ones in octants 2 and 6
	sb, cb := math.Float64bits(s), math.Float64bits(c)
	t := (sb ^ cb) & swap
	sb ^= t ^ bits&signBit ^ (j>>2&1)<<63
	cb ^= t ^ ((j>>2^j>>1)&1)<<63
	return math.Float64frombits(sb), math.Float64frombits(cb)
}
