//go:build !amd64

package rainbow

func haveAVX512() bool { return false }

func walkRingSIMD(v *[simdWidth]uint64, k *ringKernel) {
	panic("rainbow: the AVX-512 ring walk needs amd64")
}
