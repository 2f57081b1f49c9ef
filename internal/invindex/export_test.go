package invindex

// BucketStats reports how a hashed index's directory spreads its keys:
// the largest bucket, and the share of its keys a probe for which walks
// past the first two keys of its bucket.
func BucketStats(f *Frozen) (largest int, pastTwo float64) {
	var dir []int
	for _, o := range f.dir16 {
		dir = append(dir, int(o))
	}
	for _, o := range f.dir32 {
		dir = append(dir, int(o))
	}
	return spread(dir, f.NumKeys())
}

// PriorBucketStats is BucketStats for distinct keys of keyLen bytes
// under the hash the quotient layout replaced: (keyLen ⊕ x)·hashMul mod
// 2⁶⁴, a key's bucket its top bucketBits(n) bits.
func PriorBucketStats(keys []uint64, keyLen int) (largest int, pastTwo float64) {
	n := len(keys)
	dir := make([]int, 1<<bucketBits(n)+1)
	for _, x := range keys {
		dir[bucket(mix(uint64(keyLen), x), dirShift(n))+1]++
	}
	for b := 1; b < len(dir); b++ {
		dir[b] += dir[b-1]
	}
	return spread(dir, n)
}

// spread is BucketStats over a directory of n keys.
func spread(dir []int, n int) (largest int, pastTwo float64) {
	past := 0
	for b := range len(dir) - 1 {
		size := dir[b+1] - dir[b]
		largest, past = max(largest, size), past+max(size-2, 0)
	}
	return largest, float64(past) / float64(max(n, 1))
}

// Passes returns the content tier's three passes over f, as the arm in
// force runs them: the keys' (checkKeys), the refs' — noting each block's
// lists, all the refs pass does — and the whole postings pass
// (checkLists), whose time less the refs' is the lists'.
func Passes(f *Frozen) (keys, refs, postings func() error) {
	refs = func() error {
		var lists [scanBlock]int32
		var top uint32
		kp := f.newRefPass(kernelArm())
		for base := 0; base < f.numKeys; base += scanBlock {
			f.noteBlock(&kp, base, &lists, &top)
		}
		return nil
	}
	postings = func() error {
		_, err := f.checkLists()
		return err
	}
	return f.checkKeys, refs, postings
}

// KernelMissing is what this host lacks of the content tier's kernels.
var KernelMissing = kernelMissing
