package traffic

// DenseWindowBurstiness is the dense window-scan oracle, for the external
// tests of the package.
var DenseWindowBurstiness = denseWindowBurstiness
