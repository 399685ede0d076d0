package costmodel

// CalibrationEntries counts the memoized calibration probes: hierarchies
// whose saturation streams were measured, schemes whose decode cost was.
func CalibrationEntries() (streams, decodes int) {
	streamsCache.Range(func(_, _ any) bool { streams++; return true })
	decodeCache.Range(func(_, _ any) bool { decodes++; return true })
	return streams, decodes
}
