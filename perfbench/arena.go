package main

import (
	"errors"
	"fmt"
	"syscall"
	"unsafe"
)

// arena hands out slices in memory mapped outside the Go heap. The
// benchmark keeps its inputs and recordings there, so they neither add
// garbage-collector work to the measured process nor raise its heap
// goal: the pipeline's GC runs as it would in a collector process.
type arena struct{ maps [][]byte }

// offHeap returns n zeroed Ts from a. T must hold no pointers: the
// collector does not scan this memory. Appending past the returned
// capacity moves the slice onto the heap.
func offHeap[T any](a *arena, n int) ([]T, error) {
	var zero T
	size := int(unsafe.Sizeof(zero)) * n
	if size == 0 {
		return nil, nil
	}
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map %d bytes: %w", size, err)
	}
	a.maps = append(a.maps, b)
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n), nil
}

// copyOffHeap returns a copy of xs from a. It does nothing once *err
// is set, and sets *err when it fails, so a run of copies needs one
// check at the end.
func copyOffHeap[T any](a *arena, xs []T, err *error) []T {
	if *err != nil {
		return nil
	}
	out, e := offHeap[T](a, len(xs))
	if e != nil {
		*err = e
		return nil
	}
	copy(out, xs)
	return out
}

// release unmaps everything a handed out; the slices must not be used
// after.
func (a *arena) release() error {
	var errs []error
	for _, b := range a.maps {
		errs = append(errs, syscall.Munmap(b))
	}
	a.maps = nil
	return errors.Join(errs...)
}
