package lightcrypto

import (
	"bytes"
	"crypto/aes"
	"crypto/sha1"
	"testing"
)

// FuzzSHA1AgainstStdlib differentially fuzzes the from-scratch SHA-1
// against crypto/sha1.
func FuzzSHA1AgainstStdlib(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("abc"))
	f.Add(bytes.Repeat([]byte{0x61}, 120))
	f.Fuzz(func(t *testing.T, msg []byte) {
		got := SHA1Sum(msg)
		want := sha1.Sum(msg)
		if got != want {
			t.Fatalf("SHA1 mismatch for %d-byte input", len(msg))
		}
	})
}

// FuzzOpenNeverAcceptsGarbage: Open on arbitrary ciphertext must
// either fail or (for the unmodified sealed message) return the
// original plaintext; flipped bytes must always be rejected.
func FuzzOpenNeverAcceptsGarbage(f *testing.F) {
	f.Add([]byte("payload"), uint8(0))
	f.Add([]byte(""), uint8(3))
	f.Fuzz(func(t *testing.T, msg []byte, flip uint8) {
		key := make([]byte, 16)
		key[0] = 7
		a, err := NewAES(key)
		if err != nil {
			t.Fatal(err)
		}
		nonce := make([]byte, 16)
		sealed, err := a.Seal(nonce, msg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.Open(nonce, sealed)
		if err != nil || !bytes.Equal(got, msg) {
			t.Fatal("honest seal did not open")
		}
		tampered := append([]byte{}, sealed...)
		tampered[int(flip)%len(tampered)] ^= 0x80
		if _, err := a.Open(nonce, tampered); err == nil {
			t.Fatal("tampered message accepted")
		}
	})
}

// FuzzAESAgainstStdlib differentially fuzzes AES-128 against
// crypto/aes: Encrypt must match the reference, Decrypt must invert
// it, and Rekey on a used instance must behave as a fresh NewAES.
// Inputs of any length are zero-padded or truncated to 16 bytes so
// that every mutation reaches the cipher.
func FuzzAESAgainstStdlib(f *testing.F) {
	f.Add(make([]byte, 16), make([]byte, 16), bytes.Repeat([]byte{0xff}, 16))
	f.Add([]byte("0123456789abcdef"), []byte("fedcba9876543210"), []byte("YELLOW SUBMARINE"))
	f.Fuzz(func(t *testing.T, keyIn, blockIn, key2In []byte) {
		var key, block, key2 [16]byte
		copy(key[:], keyIn)
		copy(block[:], blockIn)
		copy(key2[:], key2In)
		a, err := NewAES(key[:])
		if err != nil {
			t.Fatal(err)
		}
		ref, err := aes.NewCipher(key[:])
		if err != nil {
			t.Fatal(err)
		}
		var got, want, back [AESBlockSize]byte
		a.Encrypt(got[:], block[:])
		ref.Encrypt(want[:], block[:])
		if got != want {
			t.Fatalf("Encrypt(key=%x, %x) = %x, crypto/aes gives %x", key, block, got, want)
		}
		a.Decrypt(back[:], got[:])
		if back != block {
			t.Fatalf("Decrypt(Encrypt(%x)) = %x under key %x", block, back, key)
		}
		if err := a.Rekey(key2[:]); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewAES(key2[:])
		if err != nil {
			t.Fatal(err)
		}
		if a.rk != fresh.rk {
			t.Fatalf("Rekey(%x) on a used instance differs from NewAES", key2)
		}
		var g2, w2 [AESBlockSize]byte
		a.Encrypt(g2[:], block[:])
		fresh.Encrypt(w2[:], block[:])
		if g2 != w2 {
			t.Fatalf("Encrypt after Rekey(%x) = %x, fresh instance gives %x", key2, g2, w2)
		}
	})
}
