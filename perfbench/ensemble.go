package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/amlight/intddos/internal/experiment"
	"github.com/amlight/intddos/internal/ml"
)

// trainRows caps the ensemble's training sample, as the repository's
// other live benchmarks do.
const trainRows = 20000

// ensemblePath returns the saved ensemble, training it on capture c
// and saving it first when absent. The bundle, like the capture, is
// fixed (models seeded with captureSeed): it is part of the system
// under test, not of its input. Trained per workload seed, it was a
// lottery: one seed's bundle decided live benign traffic at 56%
// accuracy where its neighbours reached 99.99%. Training (Table III
// territory) takes seconds, so it happens once per build of the
// benchmark and outside every timed region; each run then loads the
// bundle with LoadEnsemble, as a deployment would. The saved bundle is
// named after a hash of the running executable, so a build of other
// code (other training, another bundle format) never loads a bundle
// an earlier build saved in the same directory.
func ensemblePath(dir string, c *experiment.Capture) (string, error) {
	id, err := executableHash()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("ensemble-%s-seed%d.bin", id, captureSeed))
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	const seed = captureSeed
	train, _ := c.INT.Split(0.1, seed)
	sub := train.Subsample(trainRows, seed)
	scaler := &ml.StandardScaler{}
	Z, err := scaler.FitTransform(sub.X)
	if err != nil {
		return "", fmt.Errorf("fit scaler: %w", err)
	}
	var models []ml.Classifier
	for _, spec := range experiment.StageTwoModels() {
		m := spec.New(seed)
		if err := m.Fit(Z, sub.Y); err != nil {
			return "", fmt.Errorf("fit %s: %w", spec.Name, err)
		}
		models = append(models, m)
	}
	// Write under a temporary name and rename, so a run killed while
	// saving never leaves a truncated bundle behind for the next one.
	tmp := path + ".tmp"
	if err := experiment.SaveEnsemble(tmp, models, scaler, c.INT.Names); err != nil {
		return "", fmt.Errorf("save ensemble: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return "", fmt.Errorf("save ensemble: %w", err)
	}
	return path, nil
}

// executableHash is the first 16 hex digits of the SHA-256 of the
// running executable.
func executableHash() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", fmt.Errorf("hash executable: %w", err)
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", fmt.Errorf("hash executable: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("hash executable: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// loadEnsemble reads a saved bundle and returns its models and scaler.
func loadEnsemble(path string) ([]ml.Classifier, *ml.StandardScaler, error) {
	b, err := experiment.LoadEnsemble(path)
	if err != nil {
		return nil, nil, fmt.Errorf("load ensemble: %w", err)
	}
	return b.Classifiers(), b.Scaler, nil
}
