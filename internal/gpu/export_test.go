package gpu

// Bridges from the external test package (compile_test.go) to the frozen
// reference model in reference_test.go.

// ReferenceRunKernel runs the frozen uncompiled model at s's clock state.
func ReferenceRunKernel(s *Sim, k *KernelDesc) (*KernelResult, error) { return s.refRunKernel(k) }

// ReferenceAnalyze runs the frozen uncompiled Analyze at s's clock state.
func ReferenceAnalyze(s *Sim, k *KernelDesc) (*KernelAnalysis, error) { return s.refAnalyze(k) }
