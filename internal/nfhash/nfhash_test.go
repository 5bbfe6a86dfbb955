package nfhash

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestHashesDeterministicAndDistinct(t *testing.T) {
	key := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}
	if TableHash(key) != TableHash(key) {
		t.Error("TableHash not deterministic")
	}
	if RingHash(key) != RingHash(key) {
		t.Error("RingHash not deterministic")
	}
	if TableHash(key) == RingHash(key) {
		t.Error("hash families should differ")
	}
}

func TestHashAvalanche(t *testing.T) {
	// Flipping one key bit should change many output bits on average.
	base := make([]byte, FlowKeyLen)
	h0 := TableHash(base)
	totalFlips := 0
	n := 0
	for byteIdx := 0; byteIdx < FlowKeyLen; byteIdx++ {
		for bit := 0; bit < 8; bit++ {
			k := make([]byte, FlowKeyLen)
			k[byteIdx] ^= 1 << uint(bit)
			d := h0 ^ TableHash(k)
			for ; d != 0; d &= d - 1 {
				totalFlips++
			}
			n++
		}
	}
	avg := float64(totalFlips) / float64(n)
	if avg < 24 || avg > 40 {
		t.Errorf("avalanche average %.1f bits, want ~32", avg)
	}
}

func TestHashBucketUniformity(t *testing.T) {
	const buckets = 64
	var hist [buckets]int
	s := UDPFlowSpace{SrcNet: 0x0a00, DstIP: 0xc0a80101, DstPort: 80}
	for i := uint64(0); i < 32768; i++ {
		h := TableHash(s.FromSeed(i))
		hist[h%buckets]++
	}
	want := 32768.0 / buckets
	for b, c := range hist {
		if float64(c) < want*0.7 || float64(c) > want*1.3 {
			t.Errorf("bucket %d count %d, want ~%.0f", b, c, want)
		}
	}
}

func TestMasked(t *testing.T) {
	m := Masked(TableHash, 16)
	f := func(seed uint64) bool {
		k := (RawSpace{Len: 8}).FromSeed(seed)
		v := m(k)
		return v < 1<<16 && v == TableHash(k)&0xffff
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	id := Masked(TableHash, 64)
	k := []byte{9, 9, 9}
	if id(k) != TableHash(k) {
		t.Error("64-bit mask should be identity")
	}
}

func TestUDPFlowSpaceLayout(t *testing.T) {
	s := UDPFlowSpace{SrcNet: 0x0a01, DstIP: 0xc0a80117, DstPort: 443}
	k := s.FromSeed(0x12345678)
	if len(k) != FlowKeyLen {
		t.Fatalf("key len %d", len(k))
	}
	// Source IP: 0x0a01 net + low seed bits 0x5678.
	if k[0] != 0x0a || k[1] != 0x01 || k[2] != 0x56 || k[3] != 0x78 {
		t.Errorf("src ip bytes = %v", k[:4])
	}
	// Destination pinned.
	if k[4] != 0xc0 || k[5] != 0xa8 || k[6] != 0x01 || k[7] != 0x17 {
		t.Errorf("dst ip bytes = %v", k[4:8])
	}
	// Source port from seed bits 16-31: 0x1234.
	if k[8] != 0x12 || k[9] != 0x34 {
		t.Errorf("src port bytes = %v", k[8:10])
	}
	if k[10] != 0x01 || k[11] != 0xbb {
		t.Errorf("dst port bytes = %v", k[10:12])
	}
	if k[12] != 17 {
		t.Errorf("proto = %d", k[12])
	}
}

func TestUDPFlowSpaceSeedInjective(t *testing.T) {
	s := UDPFlowSpace{SrcNet: 1, DstIP: 2, DstPort: 3}
	seen := map[string]bool{}
	for i := uint64(0); i < 10000; i++ {
		k := string(s.FromSeed(i))
		if seen[k] {
			t.Fatalf("seed %d collides", i)
		}
		seen[k] = true
	}
}

func TestRawSpace(t *testing.T) {
	s := RawSpace{Len: 4}
	k := s.FromSeed(0xdeadbeef)
	if len(k) != 4 || k[0] != 0xde || k[3] != 0xef {
		t.Errorf("key = %v", k)
	}
	long := RawSpace{Len: 12}
	k = long.FromSeed(0x01)
	if len(k) != 12 || k[11] != 1 || k[0] != 0 {
		t.Errorf("long key = %v", k)
	}
}

// TestFillMatchesFromSeed: Fill into a reused (dirty) buffer produces the
// key FromSeed allocates, for every space — rainbow chain walks rely on
// it overwriting every byte.
func TestFillMatchesFromSeed(t *testing.T) {
	spaces := []KeySpace{
		UDPFlowSpace{SrcNet: 0x0a01, DstIP: 0xc0a80117, DstPort: 443},
		RawSpace{Len: 1}, RawSpace{Len: 4}, RawSpace{Len: 8}, RawSpace{Len: 13},
	}
	for _, s := range spaces {
		dst := make([]byte, s.KeyLen())
		f := func(seed uint64) bool {
			for i := range dst {
				dst[i] = 0xa5
			}
			s.Fill(dst, seed)
			return bytes.Equal(dst, s.FromSeed(seed))
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%T%v: %v", s, s, err)
		}
	}
}

// FuzzRingLanes holds RingKey.Lanes to its definition: every lane
// equals RingHash over the key FromSeed builds, masked, for any seeds,
// any space and any width from 1 to 32 bits. Seeds come from the byte
// input, eight bytes a lane, zero-padded.
func FuzzRingLanes(f *testing.F) {
	f.Add(uint16(0x0a00), uint32(0x08080808), uint16(53), uint8(20), []byte("eight lanes of seeds, sixty-four bytes of them, give or take"))
	f.Add(uint16(0xffff), uint32(0), uint16(0xffff), uint8(31), []byte{0xff})
	f.Fuzz(func(t *testing.T, srcNet uint16, dstIP uint32, dstPort uint16, bits uint8, raw []byte) {
		s := UDPFlowSpace{SrcNet: srcNet, DstIP: dstIP, DstPort: dstPort}
		mask := uint64(1)<<(1+bits%32) - 1
		var buf [8 * Lanes]byte
		copy(buf[:], raw)
		var seeds, v [Lanes]uint64
		for i := range seeds {
			seeds[i] = binary.LittleEndian.Uint64(buf[8*i:])
		}
		v = seeds
		k := s.RingKey()
		k.Lanes(&v, mask)
		for i, seed := range seeds {
			if want := RingHash(s.FromSeed(seed)) & mask; v[i] != want {
				t.Fatalf("%+v mask %#x lane %d seed %#x: %#x, want %#x", s, mask, i, seed, v[i], want)
			}
		}
	})
}

var benchSink uint64

// BenchmarkRingHash times one ring hash of a UDP flow key built from a
// seed: the scalar Fill-then-hash step against RingKey.Lanes, per key.
func BenchmarkRingHash(b *testing.B) {
	s := UDPFlowSpace{SrcNet: 0x0a00, DstIP: 0xc0a80101, DstPort: 80}
	b.Run("scalar", func(b *testing.B) {
		key := make([]byte, FlowKeyLen)
		for i := 0; i < b.N; i++ {
			s.Fill(key, uint64(i))
			benchSink += RingHash(key)
		}
	})
	b.Run("lanes", func(b *testing.B) {
		k := s.RingKey()
		var v [Lanes]uint64
		for i := 0; i < b.N; i += Lanes {
			for j := range v {
				v[j] += uint64(i + j)
			}
			k.Lanes(&v, 1<<20-1)
		}
		benchSink += v[0]
	})
}
